// End-to-end HTTP/KV serving under load: the Cheetah argument, measured
// as one system. The identical seeded GET-dominated workload (zipf keys,
// closed-loop window, loadgen's request stream) is served by
//
//   * the exokernel server libOS (src/exos/server): DPF shard filters,
//     per-worker zero-copy packet rings, ASH hot-key fast path, journaled
//     LibFS stores, Supervisor + stride scheduling — at 1, 2 and 4 CPUs;
//   * the Ultrix-like monolithic baseline: the same httpkv parser and an
//     in-memory store behind kernel UDP sockets (SysRecvFrom/SysSendTo),
//     paying the monolithic trap/copy/wakeup path lengths.
//
// Both stacks charge the identical ParseCost/BuildCost for HTTP text, so
// the measured gap is pure OS architecture: demultiplexing, delivery,
// scheduling and transmission path lengths. Ultrix has no disk API, so
// the headline mix is GET-only against a preloaded store (Cheetah's HTTP
// benchmark shape); storage ablations (journal on/off) run exo-only with
// a PUT-heavy mix.
//
// Ablation ladder (exokernel, 2 CPUs): zero-copy rings vs the legacy
// kernel-queue copy path; ASH fast path on vs off (hot-key latency); and
// write-ahead journal vs write-back under the PUT mix.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/rand.h"
#include "src/exos/server/loadgen.h"
#include "src/exos/server/server.h"
#include "src/hw/disk.h"
#include "src/net/wire.h"
#include "src/ultrix/ultrix.h"

namespace xok::bench {
namespace {

using exos::server::BuildGetRequest;
using exos::server::BuildHttpResponse;
using exos::server::BuildPutRequest;
using exos::server::BuildQuitRequest;
using exos::server::BuildRequestPayload;
using exos::server::HttpRequest;
using exos::server::HttpResponseView;
using exos::server::KvServer;
using exos::server::KvServerConfig;
using exos::server::LatencySummary;
using exos::server::LoadGenTarget;
using exos::server::LoadKeyName;
using exos::server::LoadStats;
using exos::server::MakePreload;
using exos::server::MakeValue;
using exos::server::Method;
using exos::server::ParseError;
using exos::server::ParseHttpRequest;
using exos::server::ParseResponsePayload;
using exos::server::SummarizeLatencies;
using exos::server::WorkloadConfig;

constexpr uint32_t kRequests = 240;
constexpr uint32_t kKeys = 16;
constexpr uint32_t kValueBytes = 64;
constexpr uint64_t kSeed = 7;
constexpr uint16_t kServerPort = 7080;
constexpr uint16_t kClientPort = 7999;
constexpr uint32_t kWindow = 4;

uint64_t LoopResolve(uint32_t) { return 0xa; }  // Single machine: everything loops back.

// One measured configuration, reduced to the numbers the tables print.
struct RunResult {
  double rps = 0.0;
  LatencySummary latency;      // First-send -> ack, all data requests.
  LatencySummary hot_latency;  // Hot-key GETs (the ASH candidates).
  uint64_t acked = 0;
  uint64_t corrupt = 0;
  uint64_t gave_up = 0;
  uint64_t ash_hits = 0;    // Exokernel only.
  uint64_t path_ring = 0;   // Trace-ring delivery-path counts (exo only).
  uint64_t path_queue = 0;
  uint64_t path_ash = 0;
};

struct ExoVariant {
  uint32_t cpus = 2;
  bool rings = true;
  bool ash = true;
  bool journal = true;
  uint32_t put_per_mille = 0;  // Headline is GET-only (Ultrix has no disk).
};

RunResult RunExo(const ExoVariant& v) {
  hw::Machine machine(
      hw::Machine::Config{.phys_pages = 4096, .name = "e2e", .cpus = v.cpus});
  aegis::Aegis kernel(machine, aegis::Aegis::Config{.max_envs = 200});
  hw::Nic nic(machine, 0xa);
  hw::Disk disk(machine, 1024);
  kernel.AttachNic(&nic);
  kernel.AttachDisk(&disk);

  KvServerConfig config;
  config.iface = exos::NetIface{0xa, 1, LoopResolve};
  config.port = kServerPort;
  config.workers = v.cpus;  // One shard per CPU (power of two by choice).
  config.use_rings = v.rings;
  config.use_ash = v.ash;
  if (v.ash) {
    config.hot_keys = {LoadKeyName(0)};
    config.ash_peer_ip = 2;
    config.ash_peer_port = kClientPort;
  }
  config.journal_blocks = v.journal ? exos::LibFs::kDefaultJournalBlocks : 0;
  config.preload = MakePreload(kKeys, kValueBytes);
  config.stride_slices_per_cpu = 400;
  KvServer server(kernel, config);
  if (!server.ok()) {
    std::abort();
  }

  WorkloadConfig workload;
  workload.seed = kSeed;
  workload.requests = kRequests;
  workload.keys = kKeys;
  workload.value_bytes = kValueBytes;
  workload.put_per_mille = v.put_per_mille;
  workload.window = kWindow;
  workload.client_port = kClientPort;
  workload.trace = true;
  LoadGenTarget target;
  target.iface = exos::NetIface{0xa, 2, LoopResolve};
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = config.workers;
  target.hot_key = LoadKeyName(0);

  LoadStats stats;
  exos::Process client(kernel,
                       [&](exos::Process& p) { stats = RunLoadGen(p, target, workload); });
  if (!client.ok()) {
    std::abort();
  }
  kernel.Run();

  if (stats.gave_up != 0 || stats.corrupt != 0 || stats.deadline_hit != 0) {
    std::fprintf(stderr, "exo run unhealthy: gave_up=%llu corrupt=%llu deadline=%llu\n",
                 static_cast<unsigned long long>(stats.gave_up),
                 static_cast<unsigned long long>(stats.corrupt),
                 static_cast<unsigned long long>(stats.deadline_hit));
    std::abort();
  }
  RunResult r;
  r.rps = stats.Rps();
  r.latency = stats.latency;
  r.hot_latency = stats.hot_latency;
  r.acked = stats.acked;
  r.corrupt = stats.corrupt;
  r.gave_up = stats.gave_up;
  r.ash_hits = server.TotalAshHits();
  r.path_ring = stats.stages.path_ring;
  r.path_queue = stats.stages.path_queue;
  r.path_ash = stats.stages.path_ash;
  return r;
}

// The monolithic baseline: one Ultrix kernel on the same simulated
// machine, a server process on kernel UDP sockets with the same parser,
// the same preloaded values, and the same ParseCost/BuildCost charges —
// and a client process replaying loadgen's exact seeded request stream
// (same SplitMix draws, same zipf CDF, same canonical request text).
struct UltrixClientState {
  // Mirrors loadgen's rng so both stacks serve the identical key sequence.
  SplitMix64 rng;
  std::vector<double> cdf;
  explicit UltrixClientState(uint64_t seed, uint32_t keys, double zipf_s)
      : rng(seed), cdf(keys, 0.0) {
    double total = 0.0;
    for (uint32_t i = 0; i < keys; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
      cdf[i] = total;
    }
    for (double& c : cdf) {
      c /= total;
    }
  }
  uint32_t DrawKey() {
    const double u = rng.NextUnit();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<uint32_t>(
        std::min<ptrdiff_t>(it - cdf.begin(), static_cast<ptrdiff_t>(cdf.size()) - 1));
  }
};

RunResult RunUltrix(uint32_t put_per_mille) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 4096, .name = "ult"});
  ultrix::Ultrix kernel(machine);
  hw::Nic nic(machine, 0xa);
  kernel.AttachNic(&nic, ultrix::Ultrix::NetConfig{0xa, 1, LoopResolve});

  RunResult r;

  // Server first: it runs until it blocks in SysRecvFrom, so the port is
  // bound (and the store preloaded) before the client's first send.
  (void)kernel.CreateProcess([&] {
    struct Entry {
      std::string value;
      uint16_t sum;
    };
    std::unordered_map<std::string, Entry> store;
    for (const auto& [key, value] : MakePreload(kKeys, kValueBytes)) {
      store[key] = Entry{value, exos::server::BodySum(value)};
    }
    Result<int> fd = kernel.SysSocketUdp();
    if (!fd.ok() || kernel.SysBindPort(*fd, kServerPort) != Status::kOk) {
      std::abort();
    }
    for (;;) {
      Result<ultrix::Datagram> dgram = kernel.SysRecvFrom(*fd);
      if (!dgram.ok()) {
        std::abort();
      }
      if (dgram->payload.size() < exos::server::kReqHeaderBytes) {
        continue;
      }
      const uint32_t req_id = net::GetBe32(dgram->payload, 1);
      const std::span<const uint8_t> text(
          dgram->payload.data() + exos::server::kReqHeaderBytes,
          dgram->payload.size() - exos::server::kReqHeaderBytes);
      machine.Charge(exos::server::ParseCost(text.size()));
      HttpRequest req;
      const ParseError err = ParseHttpRequest(text, &req);
      int status = 400;
      std::string body;
      uint16_t sum = 0;
      bool have_sum = false;
      bool quit = false;
      if (err == ParseError::kOk) {
        switch (req.method) {
          case Method::kQuit:
            status = 200;
            body = "bye";
            quit = true;
            break;
          case Method::kGet: {
            auto it = store.find(std::string(req.key));
            if (it != store.end()) {
              status = 200;
              body = it->second.value;
              sum = it->second.sum;
              have_sum = true;
            } else {
              status = 404;
            }
            break;
          }
          case Method::kPut:
            store[std::string(req.key)] =
                Entry{std::string(req.body), exos::server::BodySum(req.body)};
            status = 201;
            break;
        }
      }
      const std::string resp_text = have_sum ? BuildHttpResponse(status, body, sum)
                                             : BuildHttpResponse(status, body);
      machine.Charge(exos::server::BuildCost(resp_text.size()));
      std::vector<uint8_t> resp(exos::server::kRespHeaderBytes + resp_text.size());
      net::PutBe32(resp, 0, req_id);
      std::copy(resp_text.begin(), resp_text.end(),
                resp.begin() + exos::server::kRespHeaderBytes);
      (void)kernel.SysSendTo(*fd, dgram->src_ip, dgram->src_port, resp);
      if (quit) {
        break;
      }
    }
  });

  (void)kernel.CreateProcess([&] {
    Result<int> fd = kernel.SysSocketUdp();
    if (!fd.ok() || kernel.SysBindPort(*fd, kClientPort) != Status::kOk) {
      std::abort();
    }
    UltrixClientState stream(kSeed, kKeys, /*zipf_s=*/1.1);
    std::vector<uint32_t> latest_version(kKeys, 0);
    struct Pending {
      uint64_t sent_at = 0;
      int key_index = -1;
      bool is_get = false;
    };
    std::unordered_map<uint32_t, Pending> outstanding;
    std::vector<uint64_t> samples;
    std::vector<uint64_t> hot_samples;

    uint32_t next_id = 1;
    uint32_t issued = 0;
    const uint64_t t0 = machine.clock().now();
    auto send_next = [&] {
      // The exact draw order loadgen uses: mix draw, then the zipf key.
      const uint64_t draw = stream.rng.NextBelow(1000);
      const uint32_t key_index = stream.DrawKey();
      const std::string key = LoadKeyName(key_index);
      Pending pending;
      pending.key_index = static_cast<int>(key_index);
      pending.sent_at = machine.clock().now();
      std::vector<uint8_t> payload;
      if (draw < put_per_mille) {
        const uint32_t version = ++latest_version[key_index];
        payload = BuildRequestPayload(
            next_id, BuildPutRequest(key, MakeValue(key, version, kValueBytes)), key);
      } else {
        pending.is_get = true;
        payload = BuildRequestPayload(next_id, BuildGetRequest(key), key);
      }
      (void)kernel.SysSendTo(*fd, 1, kServerPort, payload);
      outstanding.emplace(next_id, pending);
      ++next_id;
      ++issued;
    };
    auto recv_one = [&] {
      Result<ultrix::Datagram> dgram = kernel.SysRecvFrom(*fd);
      if (!dgram.ok()) {
        std::abort();
      }
      HttpResponseView view;
      if (!ParseResponsePayload(dgram->payload, &view)) {
        ++r.corrupt;
        return;
      }
      auto it = outstanding.find(view.req_id);
      if (it == outstanding.end()) {
        return;  // QUIT ack or duplicate.
      }
      const Pending& pending = it->second;
      const uint64_t rtt = machine.clock().now() - pending.sent_at;
      if (pending.is_get) {
        const int version =
            view.sum_ok
                ? exos::server::ParseValueVersion(LoadKeyName(pending.key_index),
                                                  view.body, kValueBytes)
                : -1;
        if (view.status != 200 || version < 0 ||
            static_cast<uint32_t>(version) >
                latest_version[static_cast<uint32_t>(pending.key_index)]) {
          ++r.corrupt;
        }
        if (pending.key_index == 0) {
          hot_samples.push_back(rtt);
        }
      } else if (view.status != 201) {
        ++r.corrupt;
      }
      samples.push_back(rtt);
      ++r.acked;
      outstanding.erase(it);
    };

    while (r.acked < kRequests) {
      while (issued < kRequests && outstanding.size() < kWindow) {
        send_next();
      }
      recv_one();
    }
    const uint64_t elapsed = machine.clock().now() - t0;

    // Stop the server (unmeasured, like loadgen's QUIT drain).
    const std::string quit = BuildQuitRequest();
    (void)kernel.SysSendTo(*fd, 1, kServerPort,
                           BuildRequestPayload(next_id, quit, LoadKeyName(0)));
    (void)kernel.SysRecvFrom(*fd);

    r.rps = elapsed == 0 ? 0.0
                         : static_cast<double>(r.acked) *
                               static_cast<double>(hw::kClockHz) /
                               static_cast<double>(elapsed);
    r.latency = SummarizeLatencies(std::move(samples));
    r.hot_latency = SummarizeLatencies(std::move(hot_samples));
  });

  kernel.Run();
  if (r.acked != kRequests || r.corrupt != 0) {
    std::fprintf(stderr, "ultrix run unhealthy: acked=%llu corrupt=%llu\n",
                 static_cast<unsigned long long>(r.acked),
                 static_cast<unsigned long long>(r.corrupt));
    std::abort();
  }
  return r;
}

std::string FmtRps(double rps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", rps);
  return buf;
}

void PrintPaperTables() {
  // Headline: identical seeded GET-only workload, both stacks.
  const RunResult exo1 = RunExo({.cpus = 1});
  const RunResult exo2 = RunExo({.cpus = 2});
  const RunResult exo4 = RunExo({.cpus = 4});
  const RunResult ult = RunUltrix(/*put_per_mille=*/0);

  Table head("HTTP/KV serving under load: identical seeded GET workload "
             "(simulated cycles -> us)",
             {"system", "cpus", "RPS", "p50", "p99", "p999", "hot p50", "ASH hits"});
  auto row = [&](const char* name, const char* cpus, const RunResult& r) {
    head.AddRow({name, cpus, FmtRps(r.rps), FmtUs(Us(r.latency.p50)),
                 FmtUs(Us(r.latency.p99)), FmtUs(Us(r.latency.p999)),
                 FmtUs(Us(r.hot_latency.p50)), std::to_string(r.ash_hits)});
  };
  row("ExOS server", "1", exo1);
  row("ExOS server", "2", exo2);
  row("ExOS server", "4", exo4);
  row("Ultrix sockets", "1", ult);
  head.Print();

  // Ablations (exokernel, 2 CPUs): each row removes one mechanism.
  const RunResult no_rings = RunExo({.cpus = 2, .rings = false});
  const RunResult no_ash = RunExo({.cpus = 2, .ash = false});
  const RunResult put_journal =
      RunExo({.cpus = 2, .ash = false, .journal = true, .put_per_mille = 400});
  const RunResult put_writeback =
      RunExo({.cpus = 2, .ash = false, .journal = false, .put_per_mille = 400});

  Table abl("Ablation ladder (ExOS, 2 CPUs)",
            {"configuration", "workload", "RPS", "p99", "hot p50", "delivery"});
  auto path = [](const RunResult& r) {
    return "ash:" + std::to_string(r.path_ash) + " ring:" + std::to_string(r.path_ring) +
           " queue:" + std::to_string(r.path_queue);
  };
  abl.AddRow({"rings + ASH", "GET", FmtRps(exo2.rps),
              FmtUs(Us(exo2.latency.p99)), FmtUs(Us(exo2.hot_latency.p50)), path(exo2)});
  abl.AddRow({"copy queue", "GET", FmtRps(no_rings.rps),
              FmtUs(Us(no_rings.latency.p99)), FmtUs(Us(no_rings.hot_latency.p50)),
              path(no_rings)});
  abl.AddRow({"ASH off", "GET", FmtRps(no_ash.rps), FmtUs(Us(no_ash.latency.p99)),
              FmtUs(Us(no_ash.hot_latency.p50)), path(no_ash)});
  abl.AddRow({"journal (WAL)", "40% PUT", FmtRps(put_journal.rps),
              FmtUs(Us(put_journal.latency.p99)),
              FmtUs(Us(put_journal.hot_latency.p50)), path(put_journal)});
  abl.AddRow({"write-back", "40% PUT", FmtRps(put_writeback.rps),
              FmtUs(Us(put_writeback.latency.p99)),
              FmtUs(Us(put_writeback.hot_latency.p50)), path(put_writeback)});
  abl.Print();

  // Paper shape check: each claim is measured, and only the first is a
  // contract (the ablation rungs are reported as they come out).
  auto verdict = [](bool holds) { return holds ? "yes" : "no"; };
  const bool beats_ultrix = exo1.rps > ult.rps && exo2.rps > ult.rps && exo4.rps > ult.rps;
  std::printf("Paper shape check:\n");
  std::printf("  ExOS beats Ultrix on RPS at every CPU count: %s (%s / %s / %s)\n",
              verdict(beats_ultrix), FmtX(exo1.rps / ult.rps).c_str(),
              FmtX(exo2.rps / ult.rps).c_str(), FmtX(exo4.rps / ult.rps).c_str());
  std::printf("  ASH answers hot-key GETs below the worker path's hot p50: %s (%s vs %s us)\n",
              verdict(exo2.hot_latency.p50 < no_ash.hot_latency.p50),
              FmtUs(Us(exo2.hot_latency.p50)).c_str(),
              FmtUs(Us(no_ash.hot_latency.p50)).c_str());
  std::printf("  rings beat the copy queue on RPS: %s (%s vs %s)\n",
              verdict(exo2.rps > no_rings.rps), FmtRps(exo2.rps).c_str(),
              FmtRps(no_rings.rps).c_str());
  std::printf("  rings beat the copy queue on hot p50: %s (%s vs %s us)\n",
              verdict(exo2.hot_latency.p50 < no_rings.hot_latency.p50),
              FmtUs(Us(exo2.hot_latency.p50)).c_str(),
              FmtUs(Us(no_rings.hot_latency.p50)).c_str());
  std::printf("  write-back beats the journal on 40%%-PUT RPS: %s (%s vs %s)\n",
              verdict(put_writeback.rps > put_journal.rps), FmtRps(put_writeback.rps).c_str(),
              FmtRps(put_journal.rps).c_str());
  std::printf("ExOS over Ultrix at 1, 2 and 4 CPUs (contract) — %s\n",
              beats_ultrix ? "contract holds" : "CONTRACT BROKEN");
  if (!beats_ultrix) {
    std::abort();
  }
}

// One full simulated run per configuration; counters carry the simulated
// results (RPS, percentiles) — wall time below is host simulation speed.
void ReportRun(benchmark::State& state, const RunResult& r) {
  state.counters["rps"] = r.rps;
  state.counters["p50_us"] = Us(r.latency.p50);
  state.counters["p99_us"] = Us(r.latency.p99);
  state.counters["p999_us"] = Us(r.latency.p999);
  state.counters["hot_p50_us"] = Us(r.hot_latency.p50);
  state.counters["ash_hits"] = static_cast<double>(r.ash_hits);
}

void BM_E2EExoServer(benchmark::State& state) {
  RunResult r;
  for (auto _ : state) {
    r = RunExo({.cpus = static_cast<uint32_t>(state.range(0))});
  }
  ReportRun(state, r);
}
BENCHMARK(BM_E2EExoServer)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_E2EUltrixServer(benchmark::State& state) {
  RunResult r;
  for (auto _ : state) {
    r = RunUltrix(/*put_per_mille=*/0);
  }
  ReportRun(state, r);
}
BENCHMARK(BM_E2EUltrixServer)->Unit(benchmark::kMillisecond);

void BM_E2EExoCopyQueue(benchmark::State& state) {
  RunResult r;
  for (auto _ : state) {
    r = RunExo({.cpus = 2, .rings = false});
  }
  ReportRun(state, r);
}
BENCHMARK(BM_E2EExoCopyQueue)->Unit(benchmark::kMillisecond);

void BM_E2EExoNoAsh(benchmark::State& state) {
  RunResult r;
  for (auto _ : state) {
    r = RunExo({.cpus = 2, .ash = false});
  }
  ReportRun(state, r);
}
BENCHMARK(BM_E2EExoNoAsh)->Unit(benchmark::kMillisecond);

void BM_E2EExoPutJournal(benchmark::State& state) {
  RunResult r;
  for (auto _ : state) {
    r = RunExo({.cpus = 2, .ash = false, .journal = true, .put_per_mille = 400});
  }
  ReportRun(state, r);
}
BENCHMARK(BM_E2EExoPutJournal)->Unit(benchmark::kMillisecond);

void BM_E2EExoPutWriteback(benchmark::State& state) {
  RunResult r;
  for (auto _ : state) {
    r = RunExo({.cpus = 2, .ash = false, .journal = false, .put_per_mille = 400});
  }
  ReportRun(state, r);
}
BENCHMARK(BM_E2EExoPutWriteback)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
