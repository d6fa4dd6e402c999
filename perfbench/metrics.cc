#include "perfbench/metrics.h"

#include <algorithm>
#include <map>

#include "src/exos/reqtrace.h"
#include "src/hw/cost.h"

namespace xok::perfbench {

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

uint64_t SubSeed(uint64_t seed, uint32_t i) { return seed + i * 0x9e3779b97f4a7c15ull; }

double GoodputRps(uint64_t data_acks, uint64_t elapsed_cycles) {
  return Ratio(static_cast<double>(data_acks) * static_cast<double>(hw::kClockHz),
               static_cast<double>(elapsed_cycles));
}

LatencyUs SummarizeUs(std::vector<uint64_t> cycles) {
  return ToUs(exos::server::SummarizeLatencies(std::move(cycles)));
}

LatencyUs ToUs(const exos::server::LatencySummary& s) {
  LatencyUs us;
  us.count = s.count;
  us.p50 = hw::CyclesToMicros(s.p50);
  us.p99 = hw::CyclesToMicros(s.p99);
  us.mean = s.mean * 1e6 / static_cast<double>(hw::kClockHz);
  us.insufficient = s.samples_insufficient;
  return us;
}

std::vector<uint64_t> SendLateness(const std::vector<xtrace::Record>& records,
                                   uint64_t interval_cycles) {
  std::map<uint32_t, uint64_t> sends;  // Request id -> first-send cycle.
  for (const xtrace::Record& r : records) {
    if (static_cast<xtrace::Event>(r.type) == xtrace::Event::kAppMark &&
        r.arg1 == exos::reqtrace::kPhaseClientSend) {
      sends.emplace(r.arg0, r.cycle);
    }
  }
  std::vector<uint64_t> lateness;
  if (sends.empty()) {
    return lateness;
  }
  const uint32_t first_id = sends.begin()->first;
  const uint64_t origin = sends.begin()->second;
  lateness.reserve(sends.size());
  for (const auto& [id, cycle] : sends) {
    const uint64_t due = origin + static_cast<uint64_t>(id - first_id) * interval_cycles;
    lateness.push_back(cycle > due ? cycle - due : 0);
  }
  return lateness;
}

double BusiestOverIdeal(const std::vector<uint64_t>& per_server) {
  uint64_t total = 0;
  uint64_t busiest = 0;
  for (const uint64_t n : per_server) {
    total += n;
    busiest = std::max(busiest, n);
  }
  return Ratio(static_cast<double>(busiest),
               Ratio(static_cast<double>(total), static_cast<double>(per_server.size())));
}

double RackMeasuredSeconds(double full_run_s, double setup_run_s) {
  return std::max(0.0, full_run_s - setup_run_s);
}

}  // namespace xok::perfbench
