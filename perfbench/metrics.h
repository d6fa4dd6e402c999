// Metric derivations for the repository benchmark: every number the
// benchmark reports is computed here from raw counts, so the rules
// (zero denominators, percentile ranks, goodput accounting, the rack's
// host split) are pinned by metrics_test.cc rather than buried in
// main.cc.
#ifndef XOK_PERFBENCH_METRICS_H_
#define XOK_PERFBENCH_METRICS_H_

#include <cstdint>
#include <vector>

#include "src/core/xtrace.h"
#include "src/exos/server/loadgen.h"

namespace xok::perfbench {

// num / den, or 0 when den is 0: a layer the workload never exercised
// reports no work rather than NaN.
double Ratio(double num, double den);

// Median of `values` (mean of the two middle values for an even count,
// as Python's statistics.median); 0 for an empty vector.
double Median(std::vector<double> values);

// The seed of sub-run `i` of a run on `seed`: sub-run 0 keeps the run's
// seed, so a one-sub-seed workload sees exactly the seed it was given;
// the others step by the 64-bit golden ratio (SplitMix64's increment).
uint64_t SubSeed(uint64_t seed, uint32_t i);

// Data requests acknowledged per simulated second. Takes the data-ack
// count (LoadStats::latency.count), not LoadStats::acked: the latter also
// counts the per-shard QUIT acks that arrive after the data phase ends.
double GoodputRps(uint64_t data_acks, uint64_t elapsed_cycles);

// Nearest-rank latency summary in simulated microseconds, built on
// exos::server::SummarizeLatencies: p99 is 0 with `insufficient` set
// below 100 samples rather than reporting the maximum as a percentile.
struct LatencyUs {
  uint64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  bool insufficient = false;
};
LatencyUs ToUs(const exos::server::LatencySummary& summary);
LatencyUs SummarizeUs(std::vector<uint64_t> cycles);

// Open-loop send lateness: for each client first-send mark (kAppMark,
// phase kPhaseClientSend, arg0 = request id), the cycles between the
// actual send and the slot the fixed schedule gave it. The schedule's
// origin is the lowest-id request's send; request id i is due at
// origin + (i - first_id) * interval. A send is never early, so any
// negative difference (only possible before the origin's own delay is
// paid) reads 0.
std::vector<uint64_t> SendLateness(const std::vector<xtrace::Record>& records,
                                   uint64_t interval_cycles);

// Load on the busiest server divided by the load an even split would
// give; 0 when nothing was served.
double BusiestOverIdeal(const std::vector<uint64_t>& per_server);

// RunRack is one opaque call, so its measured phase is a difference: the
// full run's host seconds minus a run of the same rack with one request
// per lane (construction, boot, warmup and teardown only). Never below 0.
double RackMeasuredSeconds(double full_run_s, double setup_run_s);

}  // namespace xok::perfbench

#endif  // XOK_PERFBENCH_METRICS_H_
