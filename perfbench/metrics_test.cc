// Self-tests for the benchmark's metric derivations.
#include "perfbench/metrics.h"

#include <gtest/gtest.h>

#include "perfbench/workloads.h"

#include <vector>

#include "src/exos/reqtrace.h"
#include "src/hw/cost.h"

namespace xok::perfbench {
namespace {

TEST(Ratio, ZeroDenominatorReadsZero) {
  EXPECT_EQ(Ratio(5.0, 0.0), 0.0);
  EXPECT_EQ(Ratio(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Ratio(3.0, 4.0), 0.75);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(GoodputRps, CountsDataAcksPerSimulatedSecond) {
  EXPECT_DOUBLE_EQ(GoodputRps(100, hw::kClockHz), 100.0);
  EXPECT_DOUBLE_EQ(GoodputRps(240, hw::kClockHz / 2), 480.0);
  EXPECT_EQ(GoodputRps(7, 0), 0.0);
}

TEST(SubSeed, SubRunZeroKeepsTheSeedOthersDiffer) {
  EXPECT_EQ(SubSeed(17, 0), 17u);
  EXPECT_NE(SubSeed(17, 1), 17u);
  EXPECT_NE(SubSeed(17, 1), SubSeed(17, 2));
  EXPECT_NE(SubSeed(17, 1), SubSeed(18, 1));
}

TEST(SummarizeUs, NearestRankWithTailGuard) {
  // 1..100 cycles: nearest rank p50 = 50, p99 = 99.
  std::vector<uint64_t> hundred;
  for (uint64_t i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  const LatencyUs full = SummarizeUs(hundred);
  EXPECT_EQ(full.count, 100u);
  EXPECT_FALSE(full.insufficient);
  EXPECT_DOUBLE_EQ(full.p50, hw::CyclesToMicros(50));
  EXPECT_DOUBLE_EQ(full.p99, hw::CyclesToMicros(99));
  EXPECT_DOUBLE_EQ(full.mean, hw::CyclesToMicros(1) * 50.5);

  // Below 100 samples the p99 is withheld, never the maximum in disguise.
  const LatencyUs short_run = SummarizeUs({10, 20, 30});
  EXPECT_TRUE(short_run.insufficient);
  EXPECT_EQ(short_run.p99, 0.0);
  EXPECT_DOUBLE_EQ(short_run.p50, hw::CyclesToMicros(20));

  const LatencyUs empty = SummarizeUs({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
}

xtrace::Record SendMark(uint32_t id, uint64_t cycle) {
  xtrace::Record r{};
  r.type = static_cast<decltype(r.type)>(xtrace::Event::kAppMark);
  r.arg0 = id;
  r.arg1 = exos::reqtrace::kPhaseClientSend;
  r.cycle = cycle;
  return r;
}

TEST(SendLateness, MeasuresAgainstTheFixedSchedule) {
  std::vector<xtrace::Record> records = {
      SendMark(2, 1'000), SendMark(3, 11'000),  // On time.
      SendMark(4, 23'500),                      // 2'500 late.
      SendMark(5, 31'000),                      // 0: never earlier than due.
  };
  xtrace::Record ack = SendMark(6, 99'999);
  ack.arg1 = exos::reqtrace::kPhaseClientAck;  // Not a send: ignored.
  records.push_back(ack);
  const std::vector<uint64_t> late = SendLateness(records, 10'000);
  EXPECT_EQ(late, (std::vector<uint64_t>{0, 0, 2'500, 0}));
  EXPECT_TRUE(SendLateness({}, 10'000).empty());
}

TEST(BusiestOverIdeal, EvenSkewedAndEmpty) {
  EXPECT_DOUBLE_EQ(BusiestOverIdeal({5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(BusiestOverIdeal({5, 1, 5, 5}), 5.0 / 4.0);
  EXPECT_EQ(BusiestOverIdeal({}), 0.0);
  EXPECT_EQ(BusiestOverIdeal({0, 0}), 0.0);
}

TEST(RackMeasuredSeconds, FullRunMinusSetupRunNeverNegative) {
  EXPECT_DOUBLE_EQ(RackMeasuredSeconds(2.5, 0.5), 2.0);
  EXPECT_EQ(RackMeasuredSeconds(0.4, 0.5), 0.0);
}

LoadGenRep SyntheticRep(uint64_t acked, double mean, uint64_t p50, uint64_t elapsed) {
  LoadGenRep r;
  r.offered = acked + 1;
  r.stats.ttl_abandoned = 1;
  r.stats.elapsed_cycles = elapsed;
  r.stats.latency.count = acked;
  r.stats.latency.mean = mean;
  r.stats.latency.p50 = p50;
  r.stats.latency.p99 = 2 * p50;
  r.layer.syscalls = 10 * acked;
  r.requests_by_worker = {acked};
  return r;
}

TEST(PoolLoadGenReps, SumsCountsWeightsTheMeanAndTakesMedianPercentiles) {
  const LoadGenRep pool = PoolLoadGenReps(
      {SyntheticRep(100, 10.0, 8, 1'000), SyntheticRep(300, 20.0, 30, 3'000),
       SyntheticRep(100, 10.0, 12, 1'000)});
  EXPECT_EQ(pool.offered, 503u);
  EXPECT_EQ(pool.stats.ttl_abandoned, 3u);
  EXPECT_EQ(pool.stats.elapsed_cycles, 5'000u);
  EXPECT_EQ(pool.stats.latency.count, 500u);
  EXPECT_DOUBLE_EQ(pool.stats.latency.mean, (100 * 10.0 + 300 * 20.0 + 100 * 10.0) / 500);
  EXPECT_EQ(pool.stats.latency.p50, 12u);
  EXPECT_EQ(pool.stats.latency.p99, 24u);
  EXPECT_EQ(pool.layer.syscalls, 5'000u);
  EXPECT_EQ(pool.requests_by_worker, (std::vector<uint64_t>{500}));
  // One sub-seed pools to itself.
  const LoadGenRep one = PoolLoadGenReps({SyntheticRep(100, 10.0, 8, 1'000)});
  EXPECT_EQ(one.stats.latency.p50, 8u);
  EXPECT_DOUBLE_EQ(one.stats.latency.mean, 10.0);
}

TEST(PoolRackReps, SumsAcksCyclesAndPerServerLoad) {
  RackRep a;
  a.lanes = 6;
  a.offered = 12;
  a.result.acked = 12;
  a.result.elapsed_cycles = 400;
  a.result.retransmissions = 3;
  a.result.acked_by_server = {5, 7};
  RackRep b = a;
  b.result.elapsed_cycles = 600;
  b.result.acked_by_server = {8, 4};
  const RackRep pool = PoolRackReps({a, b});
  EXPECT_EQ(pool.lanes, 6u);
  EXPECT_EQ(pool.offered, 24u);
  EXPECT_EQ(pool.result.acked, 24u);
  EXPECT_EQ(pool.result.elapsed_cycles, 1'000u);
  EXPECT_EQ(pool.result.retransmissions, 6u);
  EXPECT_EQ(pool.result.acked_by_server, (std::vector<uint64_t>{13, 11}));
}

// The subtrahend of the rack host split is the same rack (4 servers, 6
// lanes) serving one request per lane, cleanly.
TEST(RackMeasuredSeconds, SetupRunIsTheSameRackWithOneRequestPerLane) {
  const Workload* rack = FindWorkload("rack_put");
  ASSERT_NE(rack, nullptr);
  const RackRep setup = RunRackRep(*rack, rack->default_seed, /*setup_only=*/true);
  EXPECT_EQ(setup.failure, "");
  EXPECT_EQ(setup.offered, setup.lanes);
  EXPECT_EQ(setup.result.acked, setup.lanes);
  EXPECT_EQ(setup.result.acked_by_server.size(), 4u);
  EXPECT_GT(setup.host_s, 0.0);
}

}  // namespace
}  // namespace xok::perfbench
