// Scheduler byte-identity goldens. Each test runs a fixed workload and
// compares its simulated outcome against pinned values. Any change to
// pick order, slice penalties, idle handling, the World's tie rule, or
// cross-CPU interleaving shifts at least one of these numbers:
//   * a standalone 4-CPU KvServer serving a closed-loop client — elapsed
//     cycles, acks, the latency sum, and every environment's on-CPU cycles;
//   * the same for a standalone 2-CPU server under open-loop overload;
//   * the rack fingerprint (every machine's final clock plus the client's
//     stats) for a 1-server and a 4-server World.
// Together with RackDeterminism.SmpStandaloneGoldenCostTable these pin the
// scheduler's simulated behaviour; if a deliberate change moves them, the
// shift must be explained and the goldens re-captured.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/aegis.h"
#include "src/exos/process.h"
#include "src/exos/server/loadgen.h"
#include "src/exos/server/rack.h"
#include "src/exos/server/server.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"

namespace xok::exos::server {
namespace {

uint64_t LoopResolve(uint32_t) { return 0xa; }  // Everything is us.

TEST(SchedGolden, SmpStandaloneKvServerClosedLoop) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 2048, .name = "srv", .cpus = 4});
  aegis::Aegis kernel(machine, aegis::Aegis::Config{.max_envs = 200});
  hw::Nic nic(machine, 0xa);
  hw::Disk disk(machine, 1024);
  kernel.AttachNic(&nic);
  kernel.AttachDisk(&disk);

  KvServerConfig config;
  config.iface = NetIface{0xa, 1, LoopResolve};
  config.workers = 4;
  config.use_rings = true;
  config.use_ash = true;
  config.hot_keys = {LoadKeyName(0)};
  config.ash_peer_ip = 2;
  config.ash_peer_port = 7999;
  config.preload = MakePreload(12, 64);
  config.stride_slices_per_cpu = 400;
  KvServer server(kernel, config);
  ASSERT_TRUE(server.ok());

  WorkloadConfig workload;
  workload.seed = 7;
  workload.requests = 120;
  workload.keys = 12;
  workload.put_per_mille = 150;
  LoadGenTarget target;
  target.iface = NetIface{0xa, 2, LoopResolve};
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = config.workers;
  target.hot_key = LoadKeyName(0);

  LoadStats stats;
  Process client(kernel, [&](Process& p) { stats = RunLoadGen(p, target, workload); });
  ASSERT_TRUE(client.ok());
  kernel.Run();

  ASSERT_EQ(stats.corrupt, 0u);
  const uint64_t latency_sum =
      std::llround(stats.latency.mean * static_cast<double>(stats.latency.count));
  std::vector<uint64_t> cycles_on_cpu;
  for (aegis::EnvId id = 1; kernel.env_stats(id).env == id; ++id) {
    cycles_on_cpu.push_back(kernel.env_stats(id).counters.cycles_on_cpu);
  }
  EXPECT_EQ(stats.elapsed_cycles, 252036u);
  EXPECT_EQ(stats.acked, 124u);  // 120 data requests + one QUIT per worker.
  EXPECT_EQ(latency_sum, 975082u);
  EXPECT_EQ(machine.MaxCpuCycle(), 15745656u);
  EXPECT_EQ(cycles_on_cpu, (std::vector<uint64_t>{52826, 52826, 52828, 52828, 41402, 221890,
                                                  374982, 322776, 286786, 304814}));
}

TEST(SchedGolden, SmpStandaloneOverloadOpenLoop) {
  // A 2-CPU machine driven past capacity by an open-loop client: disk-bound
  // GETs, shedding, TTLs and jittered retries. Idle CPUs park and wake on
  // disk and NIC events here, which the closed loop above barely does, so
  // this pins the World's tie rule (a running CPU yields to a parked one
  // as soon as the parked one's event is due).
  hw::Machine machine(hw::Machine::Config{.phys_pages = 4096, .name = "ovl", .cpus = 2});
  aegis::Aegis kernel(machine, aegis::Aegis::Config{.max_envs = 64});
  hw::Nic nic(machine, 0xa);
  hw::Disk disk(machine, 1024);
  kernel.AttachNic(&nic);
  kernel.AttachDisk(&disk);

  KvServerConfig config;
  config.iface = NetIface{0xa, 1, LoopResolve};
  config.workers = 2;
  config.use_rings = true;
  config.preload = MakePreload(16, 64);
  config.stride_slices_per_cpu = 400;
  config.ring.rx_slots = 256;
  config.kv_cache_entries = 0;
  config.fs_cache_slots = 4;
  config.ring.shed_watermark = 8;
  config.admission_max_batch = 16;
  config.admission_write_shed = 12;
  config.retry_after_us = 2000;
  KvServer server(kernel, config);
  ASSERT_TRUE(server.ok());

  // A boot-time warmup on its own port, then the measured open loop. The
  // run is long because the tie rule first shows after ~100M cycles.
  WorkloadConfig measured;
  measured.seed = 11;
  measured.requests = 12'000;
  measured.keys = 16;
  measured.put_per_mille = 0;
  measured.warmup = false;
  measured.deadline_cycles = ~0ull / 2;
  measured.window = 8;
  measured.open_loop_interval_cycles = 10'000;
  measured.request_ttl_cycles = 2'000'000;
  measured.retry_timeout_cycles = 300'000;
  measured.retry_backoff_cap_cycles = 1'200'000;
  measured.retry_jitter = true;
  measured.max_retries = 1000;
  WorkloadConfig warm = measured;
  warm.requests = 0;
  warm.warmup = true;
  warm.quit_when_done = false;
  warm.client_port = 7998;
  warm.deadline_cycles = WorkloadConfig{}.deadline_cycles;
  LoadGenTarget target;
  target.iface = NetIface{0xa, 2, LoopResolve};
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = config.workers;

  LoadStats stats;
  Process client(kernel, [&](Process& p) {
    (void)RunLoadGen(p, target, warm);
    stats = RunLoadGen(p, target, measured);
  });
  ASSERT_TRUE(client.ok());
  kernel.Run();

  ASSERT_EQ(stats.corrupt, 0u);
  const uint64_t latency_sum =
      std::llround(stats.latency.mean * static_cast<double>(stats.latency.count));
  std::vector<uint64_t> cycles_on_cpu;
  for (aegis::EnvId id = 1; kernel.env_stats(id).env == id; ++id) {
    cycles_on_cpu.push_back(kernel.env_stats(id).counters.cycles_on_cpu);
  }
  EXPECT_EQ(stats.elapsed_cycles, 121991042u);
  EXPECT_EQ(stats.acked, 1086u);
  EXPECT_EQ(stats.ttl_abandoned, 10916u);
  EXPECT_EQ(stats.busy_503, 1050u);
  EXPECT_EQ(latency_sum, 1449408804u);
  EXPECT_EQ(machine.MaxCpuCycle(), 154062230u);
  EXPECT_EQ(cycles_on_cpu,
            (std::vector<uint64_t>{46426, 46426, 277330, 72429238, 5084344, 3293136}));
}

RackConfig GoldenRack(uint32_t servers) {
  RackConfig config;
  config.server_machines = servers;
  config.cpus_per_server = 2;
  config.lanes = 4;
  config.requests_per_lane = 20;
  config.keys = 16;
  config.vnodes = 32;
  config.seed = 7;
  return config;
}

TEST(SchedGolden, RackOneServerFingerprint) {
  const RackResult r = RunRack(GoldenRack(1));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.acked, 80u);
  EXPECT_EQ(r.elapsed_cycles, 4603398u);
  EXPECT_EQ(r.fingerprint, 12101492100154562985u);
}

TEST(SchedGolden, RackFourServerFingerprint) {
  const RackResult r = RunRack(GoldenRack(4));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.acked, 80u);
  EXPECT_EQ(r.elapsed_cycles, 2271188u);
  EXPECT_EQ(r.fingerprint, 14933000747620029648u);
}

}  // namespace
}  // namespace xok::exos::server
