// Ablation: rack scaling — aggregate HTTP/KV throughput as server
// machines are added behind one wire, all under a single World (the
// unified event loop is what lets SMP machines co-simulate like this at
// all). One client machine runs 6 closed-loop lanes; each lane steers
// every request by consistent hashing over the key to one of N server
// machines (2 CPUs / 2 workers each) and sends it straight to that
// machine's KvServer; the reply, which echoes the request id, is the
// acknowledgement (src/exos/server/rack.h). The workload is write-heavy
// (50% PUTs against journaled per-worker stores, 10 ms per disk
// access), so each server machine's disk is the natural bottleneck and
// adding machines must add throughput.
//
// Contracts (nonzero exit on violation):
//   * scaling floor: 4 machines >= 2.5x the 1-machine aggregate rate,
//     each rate pooled over four sub-seeds of seed 17 (sub-linear is
//     expected — consistent hashing balances keys, not perfectly — but a
//     rack that doesn't scale is a regression);
//   * every arm serves every request: corrupt == gave_up == 0, audits
//     clean on all kernels.
//
// The power-cut arm kills one of four server machines mid-measurement:
// a lane that gets no reply within its 250 ms reply bound marks the
// machine down, re-steers the dead arc to ring successors and keeps
// serving; the victim's platter image must reboot into Fsck-clean
// journaled stores.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exos/server/rack.h"

namespace xok::bench {
namespace {

using exos::server::RackConfig;
using exos::server::RackResult;
using exos::server::RunRack;

constexpr uint64_t kSeed = 17;
// Each scaling arm pools this many sub-seeds of kSeed. One seed's 180
// requests cover only a few journal syncs per machine, so a single row
// measures where those syncs happen to fall as much as it measures
// scaling; four seeds average that phase out.
constexpr uint32_t kScalingSeeds = 4;

// Sub-seed `i` of `seed`, stepped by the 64-bit golden ratio (SplitMix64's
// increment); sub-seed 0 is the seed itself.
uint64_t SubSeed(uint64_t seed, uint32_t i) {
  return seed + i * 0x9e3779b97f4a7c15ull;
}

RackConfig ScalingConfig(uint32_t servers, uint64_t seed = kSeed) {
  RackConfig config;
  config.server_machines = servers;
  config.cpus_per_server = 2;
  config.lanes = 6;
  config.requests_per_lane = 30;
  // Key mass is kept small so the preload (10 ms/disk access per PUT on
  // every machine) stays well inside the warmup budget; 16 keys over 16
  // vnodes still split 8/8 at n=2 and 5/1/5/5 at n=4 — enough spread for
  // the scaling contract with a real imbalance term in busiest/ideal.
  config.keys = 16;
  config.vnodes = 16;
  config.value_bytes = 64;
  config.put_per_mille = 500;  // Write-heavy: the disk is the bottleneck.
  config.seed = seed;
  return config;
}

RackConfig PowerCutConfig() {
  RackConfig config;
  config.server_machines = 4;
  config.cpus_per_server = 2;
  config.lanes = 6;
  config.requests_per_lane = 150;
  config.keys = 16;    // Small preload: warmup ends ~1.27 simulated s in.
  config.vnodes = 32;  // The victim owns half the keys: a real failover.
  config.value_bytes = 64;
  config.put_per_mille = 250;
  config.seed = kSeed;
  config.power_cut_server = 1;
  // Mid-measured-phase: without a cut the lanes serve from 1.27 to 2.03 s.
  config.power_cut_cycle = 16 * hw::kClockHz / 10;
  return config;
}

RackResult MustRun(const RackConfig& config, const char* what) {
  RackResult r = RunRack(config);
  if (!r.ok) {
    std::fprintf(stderr, "rack %s arm failed: %s\n", what, r.error.c_str());
    std::abort();
  }
  return r;
}

// One scaling arm pooled over kScalingSeeds sub-seeds: counts are summed,
// and the rate is sum(acked) / sum(elapsed), so every seed's requests
// weigh the same.
RackResult PooledScalingArm(uint32_t servers) {
  RackResult pool;
  pool.audits_ok = true;
  pool.acked_by_server.assign(servers, 0);
  for (uint32_t i = 0; i < kScalingSeeds; ++i) {
    const RackResult r =
        MustRun(ScalingConfig(servers, SubSeed(kSeed, i)), "scaling");
    pool.acked += r.acked;
    pool.corrupt += r.corrupt;
    pool.gave_up += r.gave_up;
    pool.resteered += r.resteered;
    pool.retransmissions += r.retransmissions;
    pool.elapsed_cycles += r.elapsed_cycles;
    for (uint32_t s = 0; s < servers; ++s) {
      pool.acked_by_server[s] += r.acked_by_server[s];
    }
    if (!r.audits_ok && pool.audits_ok) {
      pool.audits_ok = false;
      pool.audit_error = r.audit_error;
    }
  }
  if (pool.elapsed_cycles > 0) {
    pool.aggregate_rps = static_cast<double>(pool.acked) *
                         static_cast<double>(hw::kClockHz) /
                         static_cast<double>(pool.elapsed_cycles);
  }
  return pool;
}

void PrintPaperTables() {
  struct Arm {
    uint32_t servers;
    RackResult r;
  };
  std::vector<Arm> arms;
  for (const uint32_t servers : {1u, 2u, 4u}) {
    arms.push_back({servers, PooledScalingArm(servers)});
  }
  const double base = arms.front().r.aggregate_rps;

  Table table(
      "Ablation: rack scaling — aggregate closed-loop HTTP/KV throughput "
      "(6 lanes, 50% PUT, journaled stores; 4 seeds pooled per row)",
      {"server machines", "CPUs total", "aggregate r/s", "speedup", "acked",
       "resteered", "re-sends", "busiest/ideal"});
  for (const Arm& arm : arms) {
    uint64_t busiest = 0;
    for (const uint64_t a : arm.r.acked_by_server) {
      busiest = std::max(busiest, a);
    }
    const double ideal =
        static_cast<double>(arm.r.acked) / arm.r.acked_by_server.size();
    table.AddRow({std::to_string(arm.servers),
                  std::to_string(arm.servers * 2), FmtUs(arm.r.aggregate_rps),
                  FmtX(arm.r.aggregate_rps / base),
                  std::to_string(arm.r.acked),
                  std::to_string(arm.r.resteered),
                  std::to_string(arm.r.retransmissions),
                  FmtX(static_cast<double>(busiest) / ideal)});
  }
  table.Print();

  bool healthy = true;
  for (const Arm& arm : arms) {
    if (arm.r.corrupt != 0 || arm.r.gave_up != 0 || !arm.r.audits_ok) {
      std::fprintf(stderr,
                   "rack %u-machine arm unhealthy: corrupt=%llu gave_up=%llu "
                   "audits=%s\n",
                   arm.servers,
                   static_cast<unsigned long long>(arm.r.corrupt),
                   static_cast<unsigned long long>(arm.r.gave_up),
                   arm.r.audits_ok ? "ok" : arm.r.audit_error.c_str());
      healthy = false;
    }
  }
  const double speedup = arms.back().r.aggregate_rps / base;
  std::printf(
      "Scaling floor: 4 server machines deliver %.2fx the 1-machine "
      "aggregate (contract: >= 2.50x) — %s\n",
      speedup, speedup >= 2.5 ? "contract holds" : "CONTRACT BROKEN");
  if (speedup < 2.5 || !healthy) {
    std::abort();
  }

  const RackResult cut = MustRun(PowerCutConfig(), "power-cut");
  std::printf(
      "\nPower-cut arm (4 machines, one loses power at 1.6 s):\n"
      "  cut fired: %s; failover (cut -> first re-steered ack): %.1f ms\n"
      "  acked %llu (%llu re-steered to ring successors), corrupt %llu, "
      "gave_up %llu\n"
      "  victim remount: %s (%llu journal txns replayed); surviving "
      "audits: %s\n",
      cut.cut_fired ? "yes" : "NO",
      1e3 * static_cast<double>(cut.recovery_cycles) / hw::kClockHz,
      static_cast<unsigned long long>(cut.acked),
      static_cast<unsigned long long>(cut.resteered),
      static_cast<unsigned long long>(cut.corrupt),
      static_cast<unsigned long long>(cut.gave_up),
      cut.recovered_ok ? "Fsck clean" : cut.recovery_error.c_str(),
      static_cast<unsigned long long>(cut.txns_replayed),
      cut.audits_ok ? "clean" : cut.audit_error.c_str());
  const bool cut_ok = cut.cut_fired && cut.resteered > 0 &&
                      cut.recovery_cycles > 0 && cut.recovered_ok &&
                      cut.corrupt == 0 && cut.gave_up == 0 && cut.audits_ok;
  std::printf("Failover contract: detect + re-steer + journal-clean "
              "recovery — %s\n",
              cut_ok ? "contract holds" : "CONTRACT BROKEN");
  if (!cut_ok) {
    std::abort();
  }
}

RackConfig SmallConfig(uint32_t servers) {
  RackConfig config = ScalingConfig(servers);
  config.lanes = 4;
  config.requests_per_lane = 10;
  config.keys = 16;
  config.vnodes = 16;
  return config;
}

void BM_RackOneMachine(benchmark::State& state) {
  for (auto _ : state) {
    const RackResult r = MustRun(SmallConfig(1), "bm");
    benchmark::DoNotOptimize(r.acked);
    state.counters["aggregate_rps"] = r.aggregate_rps;
  }
}
BENCHMARK(BM_RackOneMachine)->Unit(benchmark::kMillisecond);

void BM_RackFourMachines(benchmark::State& state) {
  for (auto _ : state) {
    const RackResult r = MustRun(SmallConfig(4), "bm");
    benchmark::DoNotOptimize(r.acked);
    state.counters["aggregate_rps"] = r.aggregate_rps;
    state.counters["resteered"] = static_cast<double>(r.resteered);
  }
}
BENCHMARK(BM_RackFourMachines)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
