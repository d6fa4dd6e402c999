// Table 4 (reconstructed): context switch via directed yield, Aegis vs
// Ultrix. The workload ping-pongs control between two processes; the time
// per switch is half a roundtrip. Aegis's yield does minimal bookkeeping
// and lets applications save their own state; Ultrix runs the full
// in-kernel context-switch machinery on every crossing.
//
// BM_HostFiberSwitchRoundTrip is a host number, not a paper one: two raw
// hw::Fibers ping-pong, so it times the host switch every simulated env,
// process and machine runs on (the simulated tables do not depend on it).
#include "bench/bench_util.h"
#include "src/hw/fiber.h"

namespace xok::bench {
namespace {

constexpr int kRounds = 2'000;

uint64_t MeasureAegisYield() {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 128, .name = "t4a"});
  aegis::Aegis kernel(machine);
  aegis::EnvId id_a = aegis::kNoEnv;
  aegis::EnvId id_b = aegis::kNoEnv;
  uint64_t per_switch = 0;

  aegis::EnvSpec a;
  a.entry = [&] {
    const uint64_t t0 = machine.clock().now();
    for (int i = 0; i < kRounds; ++i) {
      kernel.SysYield(id_b);
    }
    per_switch = (machine.clock().now() - t0) / (2 * kRounds);
  };
  aegis::EnvSpec b;
  b.entry = [&] {
    for (int i = 0; i < kRounds; ++i) {
      kernel.SysYield(id_a);
    }
  };
  id_a = kernel.CreateEnv(std::move(a))->env;
  id_b = kernel.CreateEnv(std::move(b))->env;
  kernel.Run();
  return per_switch;
}

uint64_t MeasureUltrixYield() {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 128, .name = "t4u"});
  ultrix::Ultrix kernel(machine);
  uint64_t per_switch = 0;
  (void)kernel.CreateProcess([&] {
    const uint64_t t0 = machine.clock().now();
    for (int i = 0; i < kRounds; ++i) {
      kernel.SysYield();
    }
    per_switch = (machine.clock().now() - t0) / (2 * kRounds);
  });
  (void)kernel.CreateProcess([&] {
    for (int i = 0; i < kRounds; ++i) {
      kernel.SysYield();
    }
  });
  kernel.Run();
  return per_switch;
}

void PrintPaperTables() {
  const uint64_t aegis_switch = MeasureAegisYield();
  const uint64_t ultrix_switch = MeasureUltrixYield();
  Table table("Table 4 (reconstructed): context switch / directed yield (us, simulated)",
              {"system", "per switch", "vs Aegis"});
  table.AddRow({"Aegis yield", FmtUs(Us(aegis_switch)), "1.0x"});
  table.AddRow({"Ultrix switch", FmtUs(Us(ultrix_switch)),
                FmtX(static_cast<double>(ultrix_switch) / aegis_switch)});
  table.Print();
}

void BM_AegisYieldPingPong(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureAegisYield());
  }
  state.counters["sim_us"] = Us(MeasureAegisYield());
}
BENCHMARK(BM_AegisYieldPingPong)->Unit(benchmark::kMillisecond);

void BM_UltrixYieldPingPong(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureUltrixYield());
  }
  state.counters["sim_us"] = Us(MeasureUltrixYield());
}
BENCHMARK(BM_UltrixYieldPingPong)->Unit(benchmark::kMillisecond);

// One iteration is a round trip: main -> child -> main.
void BM_HostFiberSwitchRoundTrip(benchmark::State& state) {
  hw::Fiber main_fiber;
  hw::Fiber* child_ptr = nullptr;
  uint64_t visits = 0;
  hw::Fiber child([&] {
    for (;;) {
      ++visits;
      hw::Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;
  for (auto _ : state) {
    hw::Fiber::Switch(main_fiber, child);
  }
  benchmark::DoNotOptimize(visits);
}
BENCHMARK(BM_HostFiberSwitchRoundTrip);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
