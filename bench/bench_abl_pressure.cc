// Ablation: application throughput under revocation pressure. A repair-
// aware library OS (RevocationClient: revoke handler + Poll) works a
// 16-page set while the kernel's pressure engine runs seeded revocation
// campaigns of increasing intensity against it. Three windows per run:
// baseline (no pressure), storm, and post-storm recovery after one repair
// pass. The robustness contract is the last column: once the storm ends,
// throughput must come back to >= 90% of baseline — pressure may slow an
// application while it lasts but must not leave it degraded.
#include "bench/bench_util.h"
#include "src/core/pressure.h"
#include "src/exos/process.h"
#include "src/exos/revocation.h"

namespace xok::bench {
namespace {

constexpr int kPages = 16;
constexpr hw::Vaddr kBase = 0x1000000;
constexpr uint64_t kWindow = 1'000'000;  // Cycles per measurement window.
constexpr uint64_t kStormStart = kWindow;
constexpr uint64_t kStormEnd = 3 * kWindow;

struct PressureRun {
  uint64_t baseline_rounds = 0;  // [0, 1M): no pressure.
  uint64_t storm_rounds = 0;     // [1M, 3M): the campaign, halved per-window.
  uint64_t recovery_rounds = 0;  // [3M, 4M): after one repair pass.
  uint64_t pages_repossessed = 0;
  uint64_t bursts = 0;
};

PressureRun Measure(uint32_t pages_per_burst, uint64_t period) {
  PressureRun run;
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "pressure"});
  aegis::Aegis kernel(machine);
  exos::Process proc(kernel, [&](exos::Process& p) {
    exos::RevocationClient rc(p, {});
    for (int i = 0; i < kPages; ++i) {
      (void)p.vm().Map(kBase + i * hw::kPageBytes, exos::kProtWrite);
      (void)machine.StoreWord(kBase + i * hw::kPageBytes, i);
    }
    bool repaired_after_storm = false;
    for (;;) {
      const uint64_t now = p.kernel().SysGetCycles();
      if (now >= kStormEnd + kWindow) {
        break;
      }
      if (now >= kStormEnd && !repaired_after_storm) {
        (void)rc.Poll();  // One repair pass; recovery is measured after it.
        repaired_after_storm = true;
        continue;
      }
      (void)rc.Poll();
      for (int i = 0; i < kPages; ++i) {
        // Mid-storm stores may hit a repossessed mapping; tolerated — the
        // next Poll repairs the page table.
        (void)machine.StoreWord(kBase + i * hw::kPageBytes,
                                static_cast<uint32_t>(now + i));
      }
      if (now < kStormStart) {
        ++run.baseline_rounds;
      } else if (now < kStormEnd) {
        ++run.storm_rounds;
      } else {
        ++run.recovery_rounds;
      }
      p.kernel().SysSleep(2'000);
    }
    run.pages_repossessed = rc.stats().pages_repossessed;
  });
  if (pages_per_burst > 0) {
    aegis::PressurePlan plan;
    plan.seed = 42;
    plan.Storm(kStormStart, kStormEnd, period, pages_per_burst);
    kernel.InstallPressurePlan(plan);
  }
  kernel.Run();
  if (const aegis::PressureStats* stats = kernel.pressure_stats()) {
    run.bursts = stats->bursts;
  }
  return run;
}

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

void PrintPaperTables() {
  Table table("Ablation: throughput under revocation pressure (rounds/1M cycles)",
              {"burst pages/period", "baseline", "storm", "storm %", "recovery %"});
  struct Level {
    const char* label;
    uint32_t pages;
    uint64_t period;
  };
  bool recovered = true;
  for (const Level& level : {Level{"none", 0, 0},
                             Level{"2 / 200k", 2, 200'000},
                             Level{"4 / 100k", 4, 100'000},
                             Level{"8 / 50k", 8, 50'000}}) {
    const PressureRun run = Measure(level.pages, level.period);
    const uint64_t storm_per_window = run.storm_rounds / 2;  // 2M-cycle window.
    const double recovery_pct = Pct(run.recovery_rounds, run.baseline_rounds);
    recovered = recovered && recovery_pct >= 90.0;
    table.AddRow({level.label, std::to_string(run.baseline_rounds),
                  std::to_string(storm_per_window),
                  FmtUs(Pct(storm_per_window, run.baseline_rounds)) + "%",
                  FmtUs(recovery_pct) + "%"});
  }
  table.Print();
  std::printf("Pressure costs throughput only while it lasts: after the storm one\n"
              "Poll() repairs the page table and the working set refaults in.\n"
              "Post-storm recovery >= 90%% of baseline: %s\n",
              recovered ? "yes" : "NO (regression)");
  if (!recovered) {
    std::abort();
  }
}

void BM_StormThroughput(benchmark::State& state) {
  for (auto _ : state) {
    const PressureRun run = Measure(4, 100'000);
    benchmark::DoNotOptimize(run.storm_rounds);
    state.counters["recovery_pct"] = Pct(run.recovery_rounds, run.baseline_rounds);
    state.counters["repossessed"] = static_cast<double>(run.pages_repossessed);
  }
}
BENCHMARK(BM_StormThroughput)->Unit(benchmark::kMillisecond);

void BM_UnpressuredBaseline(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Measure(0, 0).baseline_rounds);
  }
}
BENCHMARK(BM_UnpressuredBaseline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
