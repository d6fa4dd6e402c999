// The benchmark's workloads (README.md says why each exists) and the code
// that runs one repetition of each through the public API of the server
// libOS (KvServer + RunLoadGen) or the rack (RunRack). Every layer is
// observed from outside: host CPU time around the benchmark's own calls,
// and the kernel's, NIC's and libOS's public counters read before and
// after the measured phase.
#ifndef XOK_PERFBENCH_WORKLOADS_H_
#define XOK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/exos/server/loadgen.h"
#include "src/exos/server/rack.h"

namespace xok::perfbench {

enum class Kind { kLoadGen, kRack };

struct Workload {
  const char* name;
  Kind kind;
  uint64_t default_seed;  // The seed the existing bench of this shape uses.
  uint64_t heldout_seed;  // Kept out of development, for re-checking claims.
  uint32_t cpus;          // Simulated CPUs across all machines.
  uint32_t requests;      // Data requests per repetition (rack: per lane).
  uint64_t open_loop_interval_cycles;  // 0 = closed loop.
  // Repetitions cycle through this many seeds derived from the run's
  // seed (SubSeed); the simulated metrics pool one repetition of each.
  uint32_t subseeds;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

// Host CPU seconds of this process (the simulator is single-threaded, so
// this is wall time minus descheduling).
double HostCpuSeconds();

// Measured-phase deltas of the public counters, summed over the machine.
struct LayerCounters {
  uint64_t sim_cycles = 0;        // Machine clock advance (MaxCpuCycle).
  uint64_t cycles_on_cpu = 0;     // All environments.
  uint64_t worker_cycles = 0;     // KvServer worker environments.
  uint64_t client_cycles = 0;     // The load generator's environment.
  uint64_t slices = 0;
  uint64_t migrations = 0;
  uint64_t ipis = 0;
  uint64_t tlb_misses = 0;
  uint64_t tlb_shootdowns = 0;
  uint64_t stlb_hits = 0;
  uint64_t stlb_misses = 0;
  uint64_t packets_shed = 0;
  uint64_t disk_blocks_read = 0;
  uint64_t disk_blocks_written = 0;
  uint64_t nic_frames = 0;
  uint64_t nic_tx_stall_cycles = 0;
  uint64_t syscalls = 0;
  uint64_t sleeps = 0;
  uint64_t blocks = 0;
  uint64_t yields = 0;
  uint64_t syscall_cycles = 0;  // Excluding Sleep and Block (waiting, not work).
};

// One repetition of a loadgen workload: construct, boot, warm up, run the
// measured RunLoadGen, audit. Phase boundaries are HostCpuSeconds() stamps.
struct LoadGenRep {
  double t_construct = 0.0;  // Before the first constructor.
  double t_run = 0.0;        // Aegis::Run entered (construction done).
  double t_measure = 0.0;    // Measured RunLoadGen entered (boot + warmup done).
  double t_measured = 0.0;   // Measured RunLoadGen returned.
  double t_end = 0.0;        // Run returned and the kernel audited.
  exos::server::LoadStats stats;
  uint64_t offered = 0;      // Data requests offered.
  LayerCounters layer;
  uint64_t worker_requests = 0;
  uint64_t worker_batches = 0;
  uint64_t ash_hits = 0;
  uint64_t kv_hits = 0;
  uint64_t kv_misses = 0;
  uint64_t expired = 0;
  uint64_t shed_busy = 0;
  std::vector<uint64_t> requests_by_worker;
  std::string failure;        // Empty when every correctness check passed.
  uint64_t fingerprint = 0;   // Over every simulated output.
};
LoadGenRep RunLoadGenRep(const Workload& w, uint64_t seed, bool trace);

// One repetition per sub-seed folded into one: counts and counters are
// summed, the mean latency is weighted by samples, and p50/p99 are the
// median over the repetitions (percentiles do not add). Timestamps,
// trace records and the fingerprint are not pooled.
LoadGenRep PoolLoadGenReps(const std::vector<LoadGenRep>& reps);

// One RunRack call. `setup_only` runs the same rack with one request per
// lane: construction, boot, warmup and teardown, for the host split.
struct RackRep {
  double host_s = 0.0;
  exos::server::RackResult result;
  uint32_t lanes = 0;
  uint64_t offered = 0;
  std::string failure;
};
RackRep RunRackRep(const Workload& w, uint64_t seed, bool setup_only);

// Rack repetitions folded into one the same way: acks, offered requests,
// elapsed cycles, retransmits and per-server acks are summed.
RackRep PoolRackReps(const std::vector<RackRep>& reps);

}  // namespace xok::perfbench

#endif  // XOK_PERFBENCH_WORKLOADS_H_
