#include "perfbench/workloads.h"

#include <time.h>

#include <algorithm>
#include <cstring>

#include "perfbench/metrics.h"
#include "src/core/aegis.h"
#include "src/exos/process.h"
#include "src/exos/server/server.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"

namespace xok::perfbench {

namespace {

using exos::server::KvServer;
using exos::server::KvServerConfig;
using exos::server::LoadGenTarget;
using exos::server::LoadKeyName;
using exos::server::LoadStats;
using exos::server::MakePreload;
using exos::server::RackConfig;
using exos::server::WorkerStats;
using exos::server::WorkloadConfig;

constexpr uint32_t kKeys = 16;
constexpr uint32_t kValueBytes = 64;
constexpr uint16_t kServerPort = 7080;
constexpr uint16_t kClientPort = 7999;
// The warmup RunLoadGen uses its own port, so a late duplicate reply to a
// warmup probe can never be taken for a measured request's reply.
constexpr uint16_t kWarmupPort = 7998;

uint64_t LoopResolve(uint32_t) { return 0xa; }  // One machine: all loopback.

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t FnvMixDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvMix(h, bits);
}

// The open-loop workload is the overload one: disk-bound GETs (no value
// cache, a 4-slot block cache) with the overload layer on. The closed
// loops serve from the value cache with the hot-key ASH bound.
KvServerConfig ServerConfig(const Workload& w) {
  KvServerConfig config;
  config.iface = exos::NetIface{0xa, 1, LoopResolve};
  config.port = kServerPort;
  config.workers = w.cpus;
  config.use_rings = true;
  config.preload = MakePreload(kKeys, kValueBytes);
  config.stride_slices_per_cpu = 400;
  if (w.open_loop_interval_cycles > 0) {
    config.ring.rx_slots = 256;
    config.kv_cache_entries = 0;
    config.fs_cache_slots = 4;
    config.ring.shed_watermark = 8;
    config.admission_max_batch = 16;
    config.admission_write_shed = 12;
    config.retry_after_us = 2000;
  } else {
    config.use_ash = true;
    config.hot_keys = {LoadKeyName(0)};
    config.ash_peer_ip = 2;
    config.ash_peer_port = kClientPort;
  }
  return config;
}

WorkloadConfig MeasuredConfig(const Workload& w, uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.keys = kKeys;
  config.value_bytes = kValueBytes;
  config.put_per_mille = 0;
  config.zipf_s = 1.1;
  config.client_port = kClientPort;
  config.warmup = false;  // The warmup RunLoadGen already ran.
  config.requests = w.requests;
  config.deadline_cycles = ~0ull / 2;  // Long closed loops run past 2e9.
  if (w.open_loop_interval_cycles > 0) {
    config.window = 8;
    config.open_loop_interval_cycles = w.open_loop_interval_cycles;
    config.request_ttl_cycles = 2'000'000;  // 80 simulated ms.
    config.retry_timeout_cycles = 300'000;
    config.retry_backoff_cap_cycles = 1'200'000;
    config.retry_jitter = true;
    config.max_retries = 1000;  // The TTL is the budget, not a retry count.
  } else {
    config.window = 4;
  }
  return config;
}

LayerCounters Snapshot(const aegis::Aegis& kernel, hw::Machine& machine, const hw::Nic& nic,
                       aegis::EnvId client, const std::vector<aegis::EnvId>& workers) {
  LayerCounters c;
  c.sim_cycles = machine.MaxCpuCycle();
  for (aegis::EnvId id = 1;; ++id) {
    const aegis::EnvStats s = kernel.env_stats(id);
    if (s.env == aegis::kNoEnv) {
      break;
    }
    const xtrace::EnvCounters& k = s.counters;
    c.cycles_on_cpu += k.cycles_on_cpu;
    if (id == client) {
      c.client_cycles += k.cycles_on_cpu;
    }
    for (const aegis::EnvId w : workers) {
      if (id == w) {
        c.worker_cycles += k.cycles_on_cpu;
      }
    }
    c.slices += s.slices_run;
    c.migrations += k.migrations;
    c.ipis += k.ipis_sent;
    c.tlb_misses += k.tlb_misses;
    c.packets_shed += k.packets_shed;
    c.disk_blocks_read += k.disk_blocks_read;
    c.disk_blocks_written += k.disk_blocks_written;
  }
  c.tlb_shootdowns = kernel.tlb_shootdowns();
  c.stlb_hits = kernel.stlb_hits();
  c.stlb_misses = kernel.stlb_misses();
  c.nic_frames = nic.frames_transmitted();
  c.nic_tx_stall_cycles = nic.tx_stall_cycles();
  for (uint32_t n = 0; n < xtrace::kSysCount; ++n) {
    const auto sys = static_cast<xtrace::Sys>(n);
    const xtrace::LatencyHist& h = kernel.syscall_hist(sys);
    c.syscalls += h.count;
    if (sys != xtrace::Sys::kSleep && sys != xtrace::Sys::kBlock) {
      c.syscall_cycles += h.total_cycles;
    }
  }
  c.sleeps = kernel.syscall_hist(xtrace::Sys::kSleep).count;
  c.blocks = kernel.syscall_hist(xtrace::Sys::kBlock).count;
  c.yields = kernel.syscall_hist(xtrace::Sys::kYield).count;
  return c;
}

LayerCounters Delta(const LayerCounters& a, const LayerCounters& b) {
  LayerCounters d;
  d.sim_cycles = b.sim_cycles - a.sim_cycles;
  d.cycles_on_cpu = b.cycles_on_cpu - a.cycles_on_cpu;
  d.worker_cycles = b.worker_cycles - a.worker_cycles;
  d.client_cycles = b.client_cycles - a.client_cycles;
  d.slices = b.slices - a.slices;
  d.migrations = b.migrations - a.migrations;
  d.ipis = b.ipis - a.ipis;
  d.tlb_misses = b.tlb_misses - a.tlb_misses;
  d.tlb_shootdowns = b.tlb_shootdowns - a.tlb_shootdowns;
  d.stlb_hits = b.stlb_hits - a.stlb_hits;
  d.stlb_misses = b.stlb_misses - a.stlb_misses;
  d.packets_shed = b.packets_shed - a.packets_shed;
  d.disk_blocks_read = b.disk_blocks_read - a.disk_blocks_read;
  d.disk_blocks_written = b.disk_blocks_written - a.disk_blocks_written;
  d.nic_frames = b.nic_frames - a.nic_frames;
  d.nic_tx_stall_cycles = b.nic_tx_stall_cycles - a.nic_tx_stall_cycles;
  d.syscalls = b.syscalls - a.syscalls;
  d.sleeps = b.sleeps - a.sleeps;
  d.blocks = b.blocks - a.blocks;
  d.yields = b.yields - a.yields;
  d.syscall_cycles = b.syscall_cycles - a.syscall_cycles;
  return d;
}

void Add(LayerCounters& a, const LayerCounters& b) {
  a.sim_cycles += b.sim_cycles;
  a.cycles_on_cpu += b.cycles_on_cpu;
  a.worker_cycles += b.worker_cycles;
  a.client_cycles += b.client_cycles;
  a.slices += b.slices;
  a.migrations += b.migrations;
  a.ipis += b.ipis;
  a.tlb_misses += b.tlb_misses;
  a.tlb_shootdowns += b.tlb_shootdowns;
  a.stlb_hits += b.stlb_hits;
  a.stlb_misses += b.stlb_misses;
  a.packets_shed += b.packets_shed;
  a.disk_blocks_read += b.disk_blocks_read;
  a.disk_blocks_written += b.disk_blocks_written;
  a.nic_frames += b.nic_frames;
  a.nic_tx_stall_cycles += b.nic_tx_stall_cycles;
  a.syscalls += b.syscalls;
  a.sleeps += b.sleeps;
  a.blocks += b.blocks;
  a.yields += b.yields;
  a.syscall_cycles += b.syscall_cycles;
}

// Element-wise sum, growing `a` to the longer of the two.
void Add(std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  a.resize(std::max(a.size(), b.size()));
  for (size_t i = 0; i < b.size(); ++i) {
    a[i] += b[i];
  }
}

uint64_t Fingerprint(const LoadGenRep& r, uint64_t final_cycle) {
  const LoadStats& s = r.stats;
  uint64_t h = 0xcbf29ce484222325ull;
  for (const uint64_t v :
       {s.sent, s.acked, s.retries, s.gave_up, s.dup_acks, s.busy_503, s.retry_after,
        s.ttl_abandoned, s.ok_200, s.corrupt, s.unexpected, s.deadline_hit, s.elapsed_cycles,
        s.latency.count, s.latency.p50, s.latency.p99, s.latency.max, final_cycle,
        r.layer.sim_cycles, r.layer.cycles_on_cpu, r.layer.syscalls, r.layer.syscall_cycles,
        r.layer.slices, r.layer.nic_frames, r.layer.disk_blocks_read, r.worker_requests,
        r.worker_batches, r.ash_hits, r.kv_hits, r.expired, r.shed_busy}) {
    h = FnvMix(h, v);
  }
  return FnvMixDouble(h, s.latency.mean);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // Each repetition takes a host second or two at most on a 4-core
      // x86 VM, so a run times many of them. The overload and the rack need
      // tens of thousands of requests to keep the seed's effect on the
      // simulated metrics to a few percent; they pool 4 sub-seeds.
      {"get_smp4", Kind::kLoadGen, 7, 3007, 4, 4'000, 0, 1},
      {"get_up1", Kind::kLoadGen, 7, 3007, 1, 20'000, 0, 1},
      {"overload_disk", Kind::kLoadGen, 11, 3011, 2, 16'000, 10'000, 4},  // 2500 r/s.
      {"rack_put", Kind::kRack, 17, 3017, 10, 200, 0, 4},
  };
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

double HostCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

LoadGenRep RunLoadGenRep(const Workload& w, uint64_t seed, bool trace) {
  LoadGenRep rep;
  rep.t_construct = HostCpuSeconds();

  hw::Machine machine(hw::Machine::Config{.phys_pages = 4096, .name = w.name, .cpus = w.cpus});
  aegis::Aegis kernel(machine, aegis::Aegis::Config{.max_envs = 64});
  hw::Nic nic(machine, 0xa);
  hw::Disk disk(machine, 1024);
  kernel.AttachNic(&nic);
  kernel.AttachDisk(&disk);
  const KvServerConfig server_config = ServerConfig(w);
  KvServer server(kernel, server_config);

  WorkloadConfig measured = MeasuredConfig(w, seed);
  measured.trace = trace;
  WorkloadConfig warm = measured;
  warm.requests = 0;
  warm.warmup = true;
  warm.quit_when_done = false;
  warm.trace = false;
  warm.client_port = kWarmupPort;
  warm.deadline_cycles = WorkloadConfig{}.deadline_cycles;
  rep.offered = measured.requests;

  LoadGenTarget target;
  target.iface = exos::NetIface{0xa, 2, LoopResolve};
  target.server_ip = 1;
  target.server_port = server_config.port;
  target.workers = server_config.workers;
  target.hot_key = LoadKeyName(0);

  LoadStats warm_stats;
  LayerCounters before;
  LayerCounters after;
  exos::Process client(kernel, [&](exos::Process& p) {
    warm_stats = RunLoadGen(p, target, warm);
    if (warm_stats.deadline_hit != 0 || warm_stats.unexpected != 0) {
      return;
    }
    std::vector<aegis::EnvId> workers;
    for (uint32_t i = 0; i < server.workers(); ++i) {
      if (const exos::Process* child = server.supervisor().child(i)) {
        workers.push_back(child->id());
      }
    }
    before = Snapshot(kernel, machine, nic, p.id(), workers);
    rep.t_measure = HostCpuSeconds();
    rep.stats = RunLoadGen(p, target, measured);
    rep.t_measured = HostCpuSeconds();
    after = Snapshot(kernel, machine, nic, p.id(), workers);
  });
  if (!server.ok() || !client.ok()) {
    rep.failure = "server or client environment could not be created";
    return rep;
  }
  rep.t_run = HostCpuSeconds();
  kernel.Run();

  if (warm_stats.deadline_hit != 0 || warm_stats.unexpected != 0 || rep.t_measure == 0.0) {
    rep.failure = "warmup did not reach every shard";
    return rep;
  }
  rep.layer = Delta(before, after);

  for (uint32_t i = 0; i < server.workers(); ++i) {
    const WorkerStats& ws = server.worker_stats(i);
    rep.worker_requests += ws.requests;
    rep.worker_batches += ws.batches;
    rep.kv_hits += ws.store.hits;
    rep.kv_misses += ws.store.misses;
    rep.expired += ws.expired;
    rep.shed_busy += ws.shed_busy;
    rep.requests_by_worker.push_back(ws.requests);
  }
  rep.ash_hits = server.TotalAshHits();

  const LoadStats& s = rep.stats;
  const aegis::Aegis::AuditReport audit = kernel.AuditInvariants();
  if (s.corrupt != 0 || s.gave_up != 0 || s.unexpected != 0 || s.deadline_hit != 0) {
    rep.failure = "loadgen errors: corrupt=" + std::to_string(s.corrupt) +
                  " gave_up=" + std::to_string(s.gave_up) +
                  " unexpected=" + std::to_string(s.unexpected) +
                  " deadline_hit=" + std::to_string(s.deadline_hit);
  } else if (!audit.ok()) {
    rep.failure = "AuditInvariants: " + audit.violations.front();
  } else if (s.latency.count + s.ttl_abandoned != rep.offered) {
    rep.failure = "data requests unaccounted: acked " + std::to_string(s.latency.count) +
                  " + shed " + std::to_string(s.ttl_abandoned) + " != offered " +
                  std::to_string(rep.offered);
  } else if (!server.AllWorkersDone()) {
    rep.failure = "a worker did not exit cleanly after its QUIT";
  }
  rep.fingerprint = Fingerprint(rep, machine.MaxCpuCycle());
  rep.t_end = HostCpuSeconds();
  return rep;
}

LoadGenRep PoolLoadGenReps(const std::vector<LoadGenRep>& reps) {
  LoadGenRep pool;
  LoadStats& p = pool.stats;
  double latency_sum = 0.0;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const LoadGenRep& r : reps) {
    const LoadStats& s = r.stats;
    p.acked += s.acked;
    p.retries += s.retries;
    p.busy_503 += s.busy_503;
    p.ttl_abandoned += s.ttl_abandoned;
    p.corrupt += s.corrupt;
    p.gave_up += s.gave_up;
    p.unexpected += s.unexpected;
    p.deadline_hit += s.deadline_hit;
    p.elapsed_cycles += s.elapsed_cycles;
    p.latency.count += s.latency.count;
    p.latency.samples_insufficient |= s.latency.samples_insufficient;
    latency_sum += s.latency.mean * static_cast<double>(s.latency.count);
    p50.push_back(static_cast<double>(s.latency.p50));
    p99.push_back(static_cast<double>(s.latency.p99));
    pool.offered += r.offered;
    Add(pool.layer, r.layer);
    pool.worker_requests += r.worker_requests;
    pool.worker_batches += r.worker_batches;
    pool.ash_hits += r.ash_hits;
    pool.kv_hits += r.kv_hits;
    pool.kv_misses += r.kv_misses;
    pool.expired += r.expired;
    pool.shed_busy += r.shed_busy;
    Add(pool.requests_by_worker, r.requests_by_worker);
  }
  p.latency.mean = Ratio(latency_sum, static_cast<double>(p.latency.count));
  p.latency.p50 = static_cast<uint64_t>(Median(p50));
  p.latency.p99 = static_cast<uint64_t>(Median(p99));
  return pool;
}

RackRep PoolRackReps(const std::vector<RackRep>& reps) {
  RackRep pool;
  exos::server::RackResult& p = pool.result;
  for (const RackRep& r : reps) {
    pool.lanes = r.lanes;
    pool.offered += r.offered;
    p.acked += r.result.acked;
    p.corrupt += r.result.corrupt;
    p.gave_up += r.result.gave_up;
    p.elapsed_cycles += r.result.elapsed_cycles;
    p.retransmissions += r.result.retransmissions;
    Add(p.acked_by_server, r.result.acked_by_server);
  }
  return pool;
}

RackRep RunRackRep(const Workload& w, uint64_t seed, bool setup_only) {
  RackConfig config;
  config.server_machines = 4;
  config.cpus_per_server = 2;
  config.client_cpus = 2;
  config.lanes = 6;
  config.requests_per_lane = setup_only ? 1 : w.requests;
  config.keys = kKeys;
  config.vnodes = 16;
  config.value_bytes = kValueBytes;
  config.put_per_mille = 500;
  config.seed = seed;

  RackRep rep;
  rep.lanes = config.lanes;
  rep.offered = static_cast<uint64_t>(config.lanes) * config.requests_per_lane;
  const double t0 = HostCpuSeconds();
  rep.result = exos::server::RunRack(config);
  rep.host_s = HostCpuSeconds() - t0;

  const exos::server::RackResult& r = rep.result;
  if (!r.ok) {
    rep.failure = "RunRack: " + r.error;
  } else if (r.corrupt != 0 || r.gave_up != 0) {
    rep.failure = "rack errors: corrupt=" + std::to_string(r.corrupt) +
                  " gave_up=" + std::to_string(r.gave_up);
  } else if (!r.audits_ok) {
    rep.failure = "AuditInvariants: " + r.audit_error;
  } else if (r.resteered != 0) {
    rep.failure = "requests re-steered without a fault: " + std::to_string(r.resteered);
  } else if (r.acked != rep.offered) {
    rep.failure = "acked " + std::to_string(r.acked) + " != offered " +
                  std::to_string(rep.offered);
  }
  return rep;
}

}  // namespace xok::perfbench
