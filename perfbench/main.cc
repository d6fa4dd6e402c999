// The repository benchmark program. One invocation runs one workload:
//
//   xokbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// It repeats the workload until S host CPU seconds have passed, cycling
// through the workload's sub-seeds of the given seed (each at least
// once), checks every repetition for correctness and every repeated
// sub-seed for identical simulated results, and prints a report
// whose last line is one JSON object: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1. The traced mode adds one repetition
// with the kernel trace ring armed; the end-to-end numbers always come
// from untraced repetitions, and the difference is reported as the
// tracing overhead. Exit status is nonzero, with no JSON line, on any
// failed check.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/metrics.h"
#include "perfbench/workloads.h"
#include "src/exos/reqtrace.h"
#include "src/hw/cost.h"

namespace xok::perfbench {
namespace {

constexpr size_t kMinReps = 3;

// Every sub-seed runs, so the simulated metrics can pool them all.
size_t MinReps(const Workload& w) { return std::max<size_t>(kMinReps, w.subseeds); }

struct MetricDef {
  const char* name;
  const char* unit;
};

// The gated metrics; BENCHMARK.json's end_to_end list names the same set.
constexpr MetricDef kEndToEnd[] = {
    {"sim_rps", "1/s"},     {"sim_mean_us", "us"}, {"goodput_ratio", "ratio"},
    {"host_s", "s"},        {"setup_s", "s"},      {"peak_rss_mb", "MB"},
};

// End-to-end figures printed for reading but not gated: latency
// percentiles exist only where the workload observes single requests,
// and shed/error ratios can be 0.
constexpr MetricDef kPrinted[] = {
    {"sim_p50_us", "us"},        {"sim_p99_us", "us"},         {"latency_samples", "count"},
    {"shed_ratio", "ratio"},     {"error_ratio", "ratio"},     {"acked_incl_quit", "count"},
    {"rps_incl_quit", "1/s"},    {"rdp_retransmits", "count"}, {"repetitions", "count"},
};

// BENCHMARK.json's per_layer list names the same set.
constexpr MetricDef kPerLayer[] = {
    {"host.construct_s", "s"},
    {"host.boot_s", "s"},
    {"hw.sim_mcycles_per_host_s", "Mcycle/s"},
    {"hw.cpu_busy_ratio", "ratio"},
    {"hw.nic_frames_per_req", "count"},
    {"hw.nic_tx_stall_cycles_per_req", "cycles"},
    {"hw.disk_blocks_read_per_req", "count"},
    {"hw.disk_blocks_written_per_req", "count"},
    {"core.syscalls_per_req", "count"},
    {"core.sleep_per_req", "count"},
    {"core.block_per_req", "count"},
    {"core.yield_per_req", "count"},
    {"core.syscall_sim_us_per_req", "us"},
    {"core.slices_per_req", "count"},
    {"core.migrations_per_req", "count"},
    {"core.ipis_per_req", "count"},
    {"core.tlb_shootdowns", "count"},
    {"core.tlb_misses_per_req", "count"},
    {"core.stlb_hit_ratio", "ratio"},
    {"dpf.path_ring_share", "ratio"},
    {"dpf.path_ash_share", "ratio"},
    {"dpf.path_queue_share", "ratio"},
    {"net.packets_shed_per_offered", "ratio"},
    {"net.rx_per_batch", "count"},
    {"ash.hits_per_req", "ratio"},
    {"exos.worker_sim_us_per_req", "us"},
    {"exos.client_sim_us_per_req", "us"},
    {"exos.retries_per_req", "count"},
    {"exos.busy_503_per_req", "count"},
    {"exos.kv_cache_hit_ratio", "ratio"},
    {"server.expired_per_offered", "ratio"},
    {"server.shed_busy_per_offered", "ratio"},
    {"rack.rdp_retx_per_ack", "count"},
    {"rack.busiest_over_ideal", "ratio"},
    {"span.wire_p50_us", "us"},
    {"span.wire_p99_us", "us"},
    {"span.ring_wait_p50_us", "us"},
    {"span.ring_wait_p99_us", "us"},
    {"span.parse_p50_us", "us"},
    {"span.parse_p99_us", "us"},
    {"span.store_p50_us", "us"},
    {"span.store_p99_us", "us"},
    {"span.tx_p50_us", "us"},
    {"span.tx_p99_us", "us"},
    {"span.ack_p50_us", "us"},
    {"span.ack_p99_us", "us"},
    {"span.attribution", "ratio"},
    {"loadgen.send_lateness_p99_us", "us"},
    {"loadgen.sim_p50_us", "us"},
    {"loadgen.sim_p99_us", "us"},
    {"trace.rps_overhead_ratio", "ratio"},
    {"trace.p50_overhead_ratio", "ratio"},
};

// reqtrace::Span order.
constexpr const char* kSpanKeys[exos::reqtrace::kSpanCount] = {"wire", "ring_wait", "parse",
                                                               "store", "tx", "ack"};

using Values = std::map<std::string, double>;

// What one run measured. A metric missing from a map is one this
// workload gives no view of (the rack's kernels live inside RunRack): the
// report prints n/a for it and the JSON carries 0, so every workload
// reports the same names.
struct Report {
  Values end_to_end;
  Values printed;
  Values per_layer;
  uint64_t attempted = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      have_seed = true;
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0;
}

// Named intervals of host CPU time from the benchmark's own phase
// boundaries, kept in memory and written as JSON when the run ends. Spans
// of one run share its run id; parent 0 marks the root.
class SpanLog {
 public:
  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  uint32_t Add(std::string name, double start, double end, uint32_t parent) {
    spans_.push_back({std::move(name), start, end, parent});
    return static_cast<uint32_t>(spans_.size());
  }
  void Close(uint32_t id, double end) { spans_[id - 1].end = end; }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"run_id\": \"%s\", \"clock\": \"host_cpu_s\", \"spans\": [\n",
                 run_id_.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                   "\"parent\": %u, \"run_id\": \"%s\"}%s\n",
                   i + 1, s.name.c_str(), s.start, s.end, s.parent, run_id_.c_str(),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    uint32_t parent;
  };
  std::string run_id_;
  std::vector<Span> spans_;
};

[[noreturn]] void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "xokbench: FAILED: %s\n", what.c_str());
  std::exit(1);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double PerReq(uint64_t n, uint64_t reqs) {
  return Ratio(static_cast<double>(n), static_cast<double>(reqs));
}

double UsPerReq(uint64_t cycles, uint64_t reqs) {
  return Ratio(hw::CyclesToMicros(cycles), static_cast<double>(reqs));
}

// Records a p99 only when it has the samples to stand on.
void SetP99(Values& v, const std::string& name, const LatencyUs& lat) {
  if (!lat.insufficient) {
    v[name] = lat.p99;
  }
}

Report RunLoadGenWorkload(const Workload& w, const Args& args, SpanLog& spans,
                          uint32_t root) {
  std::vector<LoadGenRep> firsts;  // The first repetition of each sub-seed.
  std::vector<double> construct_s;
  std::vector<double> boot_s;
  std::vector<double> setup_s;
  std::vector<double> host_s;
  std::vector<double> mcycles_per_s;
  const double t0 = HostCpuSeconds();
  for (size_t n = 0; n < MinReps(w) || HostCpuSeconds() - t0 < args.seconds; ++n) {
    const uint32_t sub = static_cast<uint32_t>(n % w.subseeds);
    LoadGenRep rep = RunLoadGenRep(w, SubSeed(args.seed, sub), /*trace=*/false);
    const uint32_t id = spans.Add("rep" + std::to_string(n), rep.t_construct, rep.t_end, root);
    spans.Add("construct", rep.t_construct, rep.t_run, id);
    spans.Add("boot", rep.t_run, rep.t_measure, id);
    spans.Add("measure", rep.t_measure, rep.t_measured, id);
    spans.Add("drain_audit", rep.t_measured, rep.t_end, id);
    if (!rep.failure.empty()) {
      Fail(std::string(w.name) + " repetition " + std::to_string(n) + ": " + rep.failure);
    }
    construct_s.push_back(rep.t_run - rep.t_construct);
    boot_s.push_back(rep.t_measure - rep.t_run);
    setup_s.push_back(rep.t_measure - rep.t_construct);
    host_s.push_back(rep.t_measured - rep.t_measure);
    mcycles_per_s.push_back(Ratio(static_cast<double>(rep.layer.sim_cycles) * w.cpus / 1e6,
                                  rep.t_measured - rep.t_measure));
    if (sub == firsts.size()) {
      firsts.push_back(std::move(rep));
    } else if (rep.fingerprint != firsts[sub].fingerprint) {
      Fail(std::string(w.name) + ": simulated results differ between repetitions of seed " +
           std::to_string(SubSeed(args.seed, sub)));
    }
  }

  // Simulated results are identical across repetitions of a sub-seed.
  const LoadGenRep sim = PoolLoadGenReps(firsts);
  const exos::server::LoadStats& s = sim.stats;
  const uint64_t acked = s.latency.count;  // Data acks; QUIT acks excluded.
  const uint64_t offered = sim.offered;
  const LatencyUs lat = ToUs(s.latency);
  const double rps = GoodputRps(acked, s.elapsed_cycles);

  Report report;
  report.attempted = offered;
  Values& e = report.end_to_end;
  e["sim_rps"] = rps;
  e["sim_mean_us"] = lat.mean;
  e["goodput_ratio"] = PerReq(acked, offered);
  e["host_s"] = Median(host_s);
  e["setup_s"] = Median(setup_s);
  e["peak_rss_mb"] = PeakRssMb();

  Values& p = report.printed;
  p["sim_p50_us"] = lat.p50;
  SetP99(p, "sim_p99_us", lat);
  p["latency_samples"] = static_cast<double>(lat.count);
  p["shed_ratio"] = PerReq(s.ttl_abandoned, offered);
  p["error_ratio"] = PerReq(s.corrupt + s.gave_up + s.unexpected + s.deadline_hit, offered);
  p["acked_incl_quit"] = static_cast<double>(s.acked);
  p["rps_incl_quit"] = s.Rps();
  p["repetitions"] = static_cast<double>(host_s.size());
  if (!args.trace) {
    return report;
  }

  const LayerCounters& c = sim.layer;
  Values& l = report.per_layer;
  l["host.construct_s"] = Median(construct_s);
  l["host.boot_s"] = Median(boot_s);
  l["hw.sim_mcycles_per_host_s"] = Median(mcycles_per_s);
  l["hw.cpu_busy_ratio"] = Ratio(static_cast<double>(c.cycles_on_cpu),
                                 static_cast<double>(c.sim_cycles) * w.cpus);
  l["hw.nic_frames_per_req"] = PerReq(c.nic_frames, acked);
  l["hw.nic_tx_stall_cycles_per_req"] = PerReq(c.nic_tx_stall_cycles, acked);
  l["hw.disk_blocks_read_per_req"] = PerReq(c.disk_blocks_read, acked);
  l["hw.disk_blocks_written_per_req"] = PerReq(c.disk_blocks_written, acked);
  l["core.syscalls_per_req"] = PerReq(c.syscalls, acked);
  l["core.sleep_per_req"] = PerReq(c.sleeps, acked);
  l["core.block_per_req"] = PerReq(c.blocks, acked);
  l["core.yield_per_req"] = PerReq(c.yields, acked);
  l["core.syscall_sim_us_per_req"] = UsPerReq(c.syscall_cycles, acked);
  l["core.slices_per_req"] = PerReq(c.slices, acked);
  l["core.migrations_per_req"] = PerReq(c.migrations, acked);
  l["core.ipis_per_req"] = PerReq(c.ipis, acked);
  l["core.tlb_shootdowns"] = static_cast<double>(c.tlb_shootdowns);
  l["core.tlb_misses_per_req"] = PerReq(c.tlb_misses, acked);
  l["core.stlb_hit_ratio"] = Ratio(static_cast<double>(c.stlb_hits),
                                   static_cast<double>(c.stlb_hits + c.stlb_misses));
  l["net.packets_shed_per_offered"] = PerReq(c.packets_shed, offered);
  l["net.rx_per_batch"] = PerReq(sim.worker_requests, sim.worker_batches);
  l["ash.hits_per_req"] = PerReq(sim.ash_hits, acked);
  l["exos.worker_sim_us_per_req"] = UsPerReq(c.worker_cycles, acked);
  l["exos.client_sim_us_per_req"] = UsPerReq(c.client_cycles, acked);
  l["exos.retries_per_req"] = PerReq(s.retries, acked);
  l["exos.busy_503_per_req"] = PerReq(s.busy_503, acked);
  l["exos.kv_cache_hit_ratio"] = Ratio(static_cast<double>(sim.kv_hits),
                                       static_cast<double>(sim.kv_hits + sim.kv_misses));
  l["server.expired_per_offered"] = PerReq(sim.expired, offered);
  l["server.shed_busy_per_offered"] = PerReq(sim.shed_busy, offered);
  l["rack.busiest_over_ideal"] = BusiestOverIdeal(sim.requests_by_worker);
  l["loadgen.sim_p50_us"] = lat.p50;
  SetP99(l, "loadgen.sim_p99_us", lat);

  // One traced repetition of sub-seed 0: delivery paths, stage spans,
  // send lateness, and the overhead against its untraced twin.
  const double t_traced = HostCpuSeconds();
  const LoadGenRep traced = RunLoadGenRep(w, args.seed, /*trace=*/true);
  spans.Add("traced_rep", t_traced, HostCpuSeconds(), root);
  if (!traced.failure.empty()) {
    Fail(std::string(w.name) + " traced repetition: " + traced.failure);
  }
  const exos::server::LoadStats& t = traced.stats;
  const double paths =
      static_cast<double>(t.stages.path_ring + t.stages.path_ash + t.stages.path_queue);
  l["dpf.path_ring_share"] = Ratio(static_cast<double>(t.stages.path_ring), paths);
  l["dpf.path_ash_share"] = Ratio(static_cast<double>(t.stages.path_ash), paths);
  l["dpf.path_queue_share"] = Ratio(static_cast<double>(t.stages.path_queue), paths);
  for (uint32_t i = 0; i < exos::reqtrace::kSpanCount; ++i) {
    const std::string key = std::string("span.") + kSpanKeys[i];
    const LatencyUs span = ToUs(t.reqs.span[i]);
    l[key + "_p50_us"] = span.p50;
    SetP99(l, key + "_p99_us", span);
  }
  l["span.attribution"] =
      Ratio(static_cast<double>(t.reqs.covered.p50), static_cast<double>(t.latency.p50));
  if (w.open_loop_interval_cycles > 0) {
    SetP99(l, "loadgen.send_lateness_p99_us",
           SummarizeUs(SendLateness(t.trace_records, w.open_loop_interval_cycles)));
  }
  const exos::server::LoadStats& u = firsts.front().stats;
  const double untraced_rps = GoodputRps(u.latency.count, u.elapsed_cycles);
  l["trace.rps_overhead_ratio"] =
      Ratio(untraced_rps - GoodputRps(t.latency.count, t.elapsed_cycles), untraced_rps);
  l["trace.p50_overhead_ratio"] =
      Ratio(static_cast<double>(t.latency.p50) - static_cast<double>(u.latency.p50),
            static_cast<double>(u.latency.p50));
  return report;
}

Report RunRackWorkload(const Workload& w, const Args& args, SpanLog& spans, uint32_t root) {
  std::vector<double> setup_s;
  std::vector<double> full_s;
  std::vector<RackRep> first_setups;  // The first repetition of each sub-seed.
  std::vector<RackRep> firsts;
  const double t0 = HostCpuSeconds();
  for (size_t n = 0; n < MinReps(w) || HostCpuSeconds() - t0 < args.seconds; ++n) {
    const uint32_t sub = static_cast<uint32_t>(n % w.subseeds);
    const uint64_t seed = SubSeed(args.seed, sub);
    const double t_setup = HostCpuSeconds();
    RackRep setup = RunRackRep(w, seed, /*setup_only=*/true);
    const double t_full = HostCpuSeconds();
    RackRep full = RunRackRep(w, seed, /*setup_only=*/false);
    spans.Add("setup_rep" + std::to_string(n), t_setup, t_full, root);
    spans.Add("full_rep" + std::to_string(n), t_full, HostCpuSeconds(), root);
    for (const RackRep* r : {&setup, &full}) {
      if (!r->failure.empty()) {
        Fail(std::string(w.name) + " repetition " + std::to_string(n) + ": " + r->failure);
      }
    }
    setup_s.push_back(setup.host_s);
    full_s.push_back(full.host_s);
    if (sub == firsts.size()) {
      first_setups.push_back(std::move(setup));
      firsts.push_back(std::move(full));
    } else if (setup.result.fingerprint != first_setups[sub].result.fingerprint ||
               full.result.fingerprint != firsts[sub].result.fingerprint) {
      Fail(std::string(w.name) + ": rack fingerprint differs between repetitions of seed " +
           std::to_string(seed));
    }
  }

  const RackRep sim = PoolRackReps(firsts);
  const exos::server::RackResult& r = sim.result;
  const double host_s = RackMeasuredSeconds(Median(full_s), Median(setup_s));
  const double rps = GoodputRps(r.acked, r.elapsed_cycles);

  Report report;
  report.attempted = sim.offered;
  Values& e = report.end_to_end;
  e["sim_rps"] = rps;
  // A closed loop of stop-and-wait lanes keeps exactly `lanes` requests
  // in flight, so by Little's law the mean first-send -> ack latency is
  // lanes / throughput (an upper bound: it includes each lane's own
  // cycles between an ack and its next send).
  e["sim_mean_us"] = Ratio(sim.lanes * 1e6, rps);
  e["goodput_ratio"] = PerReq(r.acked, sim.offered);
  e["host_s"] = host_s;
  e["setup_s"] = Median(setup_s);
  e["peak_rss_mb"] = PeakRssMb();

  Values& p = report.printed;
  p["shed_ratio"] = 0.0;  // No TTLs: every request is retried until acked.
  p["error_ratio"] = PerReq(r.corrupt + r.gave_up, sim.offered);
  p["rdp_retransmits"] = static_cast<double>(r.retransmissions);
  p["repetitions"] = static_cast<double>(full_s.size());
  std::printf("note: RackResult carries no per-request latency; sim_mean_us is "
              "lanes / sim_rps (Little's law)\n");
  if (!args.trace) {
    return report;
  }

  std::printf("note: RunRack returns no trace records and keeps its kernels private: "
              "rack has no span breakdown and no kernel or libOS counters\n");
  Values& l = report.per_layer;
  // Simulated CPU-megacycles of an average repetition per host_s.
  l["hw.sim_mcycles_per_host_s"] =
      Ratio(static_cast<double>(r.elapsed_cycles) / w.subseeds * w.cpus / 1e6, host_s);
  l["rack.rdp_retx_per_ack"] = PerReq(r.retransmissions, r.acked);
  l["rack.busiest_over_ideal"] = BusiestOverIdeal(r.acked_by_server);
  return report;
}

template <size_t N>
void PrintTable(const char* title, const MetricDef (&defs)[N], const Values& values) {
  std::printf("%s\n", title);
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it != values.end()) {
      std::printf("  %-34s %16.6g %s\n", d.name, it->second, d.unit);
    } else {
      std::printf("  %-34s %16s %s\n", d.name, "n/a", d.unit);
    }
  }
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// The result line. Every run that reaches here passed every correctness
// check, so failed is 0: requests shed at their TTL are refusals by
// design, measured by goodput_ratio, not failures.
template <size_t N>
std::string Json(uint64_t attempted, const MetricDef (&defs)[N], const Values& values) {
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": 0, \"metrics\": {";
  for (size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    out += std::string(i == 0 ? "\"" : ", \"") + defs[i].name + "\": {\"value\": " +
           Num(it != values.end() ? it->second : 0.0) + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xokbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "xokbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s: seed %llu (default %llu, held out %llu), %g s, trace %d\n",
              w->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(w->default_seed),
              static_cast<unsigned long long>(w->heldout_seed), args.seconds,
              args.trace ? 1 : 0);

  SpanLog spans(std::string(w->name) + "-seed" + std::to_string(args.seed) + "-trace" +
                (args.trace ? "1" : "0"));
  const double t0 = HostCpuSeconds();
  const uint32_t root = spans.Add("run", t0, t0, 0);
  const Report report = w->kind == Kind::kRack ? RunRackWorkload(*w, args, spans, root)
                                               : RunLoadGenWorkload(*w, args, spans, root);
  spans.Close(root, HostCpuSeconds());
  for (const MetricDef& d : kEndToEnd) {
    if (report.end_to_end.count(d.name) == 0) {
      Fail(std::string("end-to-end metric not measured: ") + d.name);
    }
  }

  PrintTable("end-to-end (gated):", kEndToEnd, report.end_to_end);
  PrintTable("end-to-end (printed):", kPrinted, report.printed);
  if (args.trace) {
    PrintTable("per-layer:", kPerLayer, report.per_layer);
  }
  if (!args.spans_path.empty() && !spans.Write(args.spans_path)) {
    Fail("cannot write spans to " + args.spans_path);
  }
  std::printf("%s\n", args.trace ? Json(report.attempted, kPerLayer, report.per_layer).c_str()
                                 : Json(report.attempted, kEndToEnd, report.end_to_end).c_str());
  return 0;
}

}  // namespace
}  // namespace xok::perfbench

int main(int argc, char** argv) { return xok::perfbench::Main(argc, argv); }
