#include "src/hw/machine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/hw/trap.h"

namespace xok::hw {
namespace {

// A minimal "identity-mapping" kernel used to exercise the machine: TLB
// misses are refilled with vpn == pfn; everything else is recorded.
class FakeKernel : public TrapSink {
 public:
  explicit FakeKernel(Machine& machine) : machine_(machine), priv_(machine.InstallKernel(this)) {}

  TrapOutcome OnException(TrapFrame& frame) override {
    exceptions.push_back(frame.type);
    switch (frame.type) {
      case ExceptionType::kTlbMissLoad:
      case ExceptionType::kTlbMissStore: {
        if (!refill) {
          return TrapOutcome::kSkip;
        }
        TlbEntry entry;
        entry.vpn = VpnOf(frame.bad_vaddr);
        entry.asid = priv_.asid();
        entry.pfn = entry.vpn;
        entry.valid = true;
        entry.writable = writable_pages;
        priv_.TlbWriteRandom(entry);
        return TrapOutcome::kRetry;
      }
      case ExceptionType::kTlbModify: {
        if (!fix_modify) {
          return TrapOutcome::kSkip;
        }
        TlbEntry entry;
        entry.vpn = VpnOf(frame.bad_vaddr);
        entry.asid = priv_.asid();
        entry.pfn = entry.vpn;
        entry.valid = true;
        entry.writable = true;
        priv_.TlbWriteRandom(entry);
        return TrapOutcome::kRetry;
      }
      default:
        return TrapOutcome::kSkip;
    }
  }

  void OnInterrupt(InterruptSource source, uint64_t payload) override {
    interrupts.push_back({source, payload});
  }

  Machine& machine_;
  PrivPort& priv_;
  std::vector<ExceptionType> exceptions;
  std::vector<std::pair<InterruptSource, uint64_t>> interrupts;
  bool refill = true;
  bool fix_modify = true;
  bool writable_pages = true;
};

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : machine_(Machine::Config{.phys_pages = 64, .name = "t0"}), kernel_(machine_) {}

  Machine machine_;
  FakeKernel kernel_;
};

TEST_F(MachineTest, ChargeAdvancesClock) {
  const uint64_t before = machine_.clock().now();
  machine_.Charge(100);
  EXPECT_EQ(machine_.clock().now(), before + 100);
}

TEST_F(MachineTest, LoadFaultsOnceThenHits) {
  ASSERT_TRUE(machine_.StoreWord(0x2000, 0xdeadbeef) == Status::kOk);
  Result<uint32_t> value = machine_.LoadWord(0x2000);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0xdeadbeefu);
  // One miss for the store; the load hits the now-present entry.
  EXPECT_EQ(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kTlbMissStore);
}

TEST_F(MachineTest, StoreToReadOnlyPageRaisesTlbModify) {
  kernel_.writable_pages = false;
  ASSERT_TRUE(machine_.LoadWord(0x3000).ok());  // Establish a read-only mapping.
  kernel_.exceptions.clear();
  ASSERT_TRUE(machine_.StoreWord(0x3000, 1) == Status::kOk);
  ASSERT_GE(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kTlbModify);
}

TEST_F(MachineTest, UnresolvedMissFailsTheAccess) {
  kernel_.refill = false;
  Result<uint32_t> value = machine_.LoadWord(0x4000);
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status(), Status::kErrAccessDenied);
}

TEST_F(MachineTest, UnalignedAccessRaisesAddressError) {
  Result<uint32_t> value = machine_.LoadWord(0x2001);
  EXPECT_FALSE(value.ok());
  ASSERT_EQ(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kAddressError);
}

TEST_F(MachineTest, OutOfRangePhysicalIsBusError) {
  // 64 pages of RAM; vpn 63 maps fine, vpn 64 maps beyond the end.
  Result<uint32_t> ok = machine_.LoadWord(63u << kPageShift);
  EXPECT_TRUE(ok.ok());
  Result<uint32_t> bad = machine_.LoadWord(64u << kPageShift);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(kernel_.exceptions.back(), ExceptionType::kBusError);
}

TEST_F(MachineTest, AddOverflowTrapsOnlyOnOverflow) {
  Result<int32_t> fine = machine_.AddOverflow(1, 2);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(*fine, 3);
  EXPECT_TRUE(kernel_.exceptions.empty());

  Result<int32_t> overflow = machine_.AddOverflow(0x7fffffff, 1);
  EXPECT_FALSE(overflow.ok());
  ASSERT_EQ(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kOverflow);
}

TEST_F(MachineTest, CoprocTrapsWhenDisabled) {
  EXPECT_TRUE(machine_.CoprocOp() != Status::kOk);
  ASSERT_EQ(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kCoprocUnusable);

  kernel_.priv_.SetCoprocEnabled(true);
  kernel_.exceptions.clear();
  EXPECT_TRUE(machine_.CoprocOp() == Status::kOk);
  EXPECT_TRUE(kernel_.exceptions.empty());
}

TEST_F(MachineTest, SliceTimerFiresAtChargeBoundary) {
  kernel_.priv_.SetSliceDeadline(machine_.clock().now() + 1000);
  machine_.Charge(500);
  EXPECT_TRUE(kernel_.interrupts.empty());
  machine_.Charge(600);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].first, InterruptSource::kTimer);
  // One-shot: no refire without re-arming.
  machine_.Charge(5000);
  EXPECT_EQ(kernel_.interrupts.size(), 1u);
}

TEST_F(MachineTest, ScheduledEventDeliversWithPayload) {
  kernel_.priv_.ScheduleEvent(2000, InterruptSource::kDiskDone, 77);
  machine_.Charge(1999);
  EXPECT_TRUE(kernel_.interrupts.empty());
  machine_.Charge(1);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].second, 77u);
}

TEST_F(MachineTest, InterruptsMaskedWhileDisabled) {
  kernel_.priv_.ScheduleEvent(10, InterruptSource::kDiskDone, 1);
  kernel_.priv_.SetInterruptsEnabled(false);
  machine_.Charge(1000);
  EXPECT_TRUE(kernel_.interrupts.empty());
  kernel_.priv_.SetInterruptsEnabled(true);
  machine_.Charge(1);
  EXPECT_EQ(kernel_.interrupts.size(), 1u);
}

TEST_F(MachineTest, WaitForInterruptAdvancesToNextEvent) {
  kernel_.priv_.ScheduleEvent(12345, InterruptSource::kDiskDone, 5);
  const uint64_t before = machine_.clock().now();
  machine_.WaitForInterrupt();
  EXPECT_GE(machine_.clock().now(), before + 12345);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
}

TEST_F(MachineTest, CopyOutCopyInRoundTripsAcrossPages) {
  std::vector<uint8_t> src(kPageBytes + 123);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(machine_.CopyOut(0x5ff0, src) == Status::kOk);  // Crosses a page boundary.
  std::vector<uint8_t> dst(src.size());
  ASSERT_TRUE(machine_.CopyIn(dst, 0x5ff0) == Status::kOk);
  EXPECT_EQ(src, dst);
}

TEST_F(MachineTest, AccessChargesCycles) {
  (void)machine_.StoreWord(0x2000, 1);  // Prime the mapping.
  const uint64_t before = machine_.clock().now();
  (void)machine_.LoadWord(0x2000);
  const uint64_t hit_cost = machine_.clock().now() - before;
  EXPECT_GT(hit_cost, 0u);
  EXPECT_LT(hit_cost, Instr(10));  // A hit is cheap.
}

TEST_F(MachineTest, TlbMissCostsMoreThanHit) {
  (void)machine_.LoadWord(0x2000);
  const uint64_t t0 = machine_.clock().now();
  (void)machine_.LoadWord(0x2000);  // Hit.
  const uint64_t hit = machine_.clock().now() - t0;
  const uint64_t t1 = machine_.clock().now();
  (void)machine_.LoadWord(0x9000);  // Miss + refill.
  const uint64_t miss = machine_.clock().now() - t1;
  EXPECT_GT(miss, hit);
}

TEST_F(MachineTest, SliceDeadlineAtCurrentCycleFiresOnNextCharge) {
  // Regression: a deadline equal to the current cycle (including cycle 0)
  // must still raise kTimer at the next charge boundary, not be treated as
  // "unarmed". The original code used deadline == 0 as the disarmed state.
  kernel_.priv_.SetSliceDeadline(machine_.clock().now());
  EXPECT_TRUE(kernel_.priv_.slice_armed());
  EXPECT_TRUE(kernel_.interrupts.empty());
  machine_.Charge(1);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].first, InterruptSource::kTimer);
  EXPECT_FALSE(kernel_.priv_.slice_armed());
}

TEST_F(MachineTest, SliceDeadlineInThePastFiresOnNextCharge) {
  machine_.Charge(500);
  kernel_.priv_.SetSliceDeadline(100);  // Already behind the clock.
  machine_.Charge(1);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].first, InterruptSource::kTimer);
}

TEST_F(MachineTest, ClearSliceDeadlineDisarms) {
  kernel_.priv_.SetSliceDeadline(machine_.clock().now() + 10);
  kernel_.priv_.ClearSliceDeadline();
  EXPECT_FALSE(kernel_.priv_.slice_armed());
  machine_.Charge(1000);
  EXPECT_TRUE(kernel_.interrupts.empty());
}

TEST(PhysMem, FreshMachineReadsZeroAndViewsShareBytes) {
  constexpr uint32_t kPages = 64;
  Machine machine(Machine::Config{.phys_pages = kPages, .name = "zero"});
  PhysMem& mem = machine.mem();
  ASSERT_EQ(mem.page_count(), kPages);
  for (PageId page = 0; page < kPages; ++page) {
    for (uint8_t byte : mem.PageSpan(page)) {
      ASSERT_EQ(byte, 0) << "page " << page;
    }
  }

  // A write through one view is seen through every other.
  mem.PageSpan(3)[17] = 0xab;
  mem.WriteWord(5 * kPageBytes + 8, 0x12345678u);
  std::span<uint8_t> range = mem.RangeSpan(2, 4);
  ASSERT_EQ(range.size(), 4 * kPageBytes);
  EXPECT_EQ(range[kPageBytes + 17], 0xab);
  EXPECT_EQ(mem.ReadByte(3 * kPageBytes + 17), 0xab);
  range[3 * kPageBytes + 8] = 0x99;  // Low byte of the word on page 5.
  EXPECT_EQ(mem.ReadWord(5 * kPageBytes + 8), 0x12345699u);
  const PhysMem& const_mem = mem;
  EXPECT_EQ(const_mem.PageSpan(5)[8], 0x99);
  EXPECT_EQ(mem.ReadWord((kPages - 1) * kPageBytes), 0u);
}

TEST(MachineAsid, SeparateAsidsDoNotShareMappings) {
  Machine machine(Machine::Config{.phys_pages = 64, .name = "t1"});
  FakeKernel kernel(machine);
  ASSERT_TRUE(machine.StoreWord(0x2000, 0x11) == Status::kOk);
  kernel.priv_.SetAsid(5);
  kernel.exceptions.clear();
  ASSERT_TRUE(machine.LoadWord(0x2000).ok());
  // The new address space had to take its own miss.
  ASSERT_FALSE(kernel.exceptions.empty());
  EXPECT_EQ(kernel.exceptions[0], ExceptionType::kTlbMissLoad);
}

// --- SMP: per-CPU state, the interleaver, IPIs, remote TLB flushes ---

class SmpMachineTest : public ::testing::Test {
 protected:
  SmpMachineTest()
      : machine_(Machine::Config{.phys_pages = 64, .name = "smp", .cpus = 4}),
        kernel_(machine_) {}

  Machine machine_;
  FakeKernel kernel_;
};

TEST_F(SmpMachineTest, TopologyIsVisible) {
  EXPECT_EQ(machine_.cpu_count(), 4u);
  EXPECT_EQ(machine_.current_cpu(), 0u);  // Host-side code runs as CPU 0.
  EXPECT_EQ(kernel_.priv_.cpu_count(), 4u);
}

TEST_F(SmpMachineTest, RunCpusInterleavesByLocalClock) {
  // Each body charges in different step sizes; the interleaver must keep
  // the local clocks within one charge of each other, so the order of
  // completion follows total work, not body index.
  std::vector<uint32_t> finish_order;
  std::vector<std::function<void()>> bodies;
  const uint64_t work[4] = {400, 100, 300, 200};
  for (uint32_t k = 0; k < 4; ++k) {
    bodies.push_back([this, k, &work, &finish_order]() {
      for (uint64_t done = 0; done < work[k]; done += 50) {
        machine_.Charge(50);
      }
      finish_order.push_back(k);
    });
  }
  machine_.RunCpus(std::move(bodies));
  ASSERT_EQ(finish_order.size(), 4u);
  EXPECT_EQ(finish_order[0], 1u);  // Least work finishes first...
  EXPECT_EQ(finish_order[3], 0u);  // ...most work last.
  EXPECT_EQ(machine_.MaxCpuCycle(), 400u);
  EXPECT_EQ(machine_.cpu(1).clock().now(), 100u);
}

TEST_F(SmpMachineTest, EachCpuHasItsOwnTlb) {
  std::vector<std::function<void()>> bodies;
  bodies.push_back([this]() { (void)machine_.LoadWord(0x2000); });
  bodies.push_back([this]() { (void)machine_.LoadWord(0x2000); });
  bodies.push_back([] {});
  bodies.push_back([] {});
  machine_.RunCpus(std::move(bodies));
  // Each CPU took its own miss for the same address: TLBs are private.
  // (A shared TLB would leave the second access a hit.)
  size_t misses = 0;
  for (ExceptionType type : kernel_.exceptions) {
    if (type == ExceptionType::kTlbMissLoad) {
      ++misses;
    }
  }
  EXPECT_EQ(misses, 2u);
  // And the entries really landed in different TLBs.
  EXPECT_NE(machine_.cpu(0).tlb().Lookup(2, 0), nullptr);
  EXPECT_NE(machine_.cpu(1).tlb().Lookup(2, 0), nullptr);
  EXPECT_EQ(machine_.cpu(2).tlb().Lookup(2, 0), nullptr);
}

TEST_F(SmpMachineTest, SendIpiDeliversToTargetCpu) {
  std::vector<std::function<void()>> bodies;
  bodies.push_back([this]() { kernel_.priv_.SendIpi(2, 42); });
  bodies.push_back([] {});
  bodies.push_back([this]() {
    // Park until the IPI arrives.
    machine_.WaitForInterrupt();
  });
  bodies.push_back([] {});
  machine_.RunCpus(std::move(bodies));
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].first, InterruptSource::kIpi);
  EXPECT_EQ(kernel_.interrupts[0].second, 42u);
}

TEST_F(SmpMachineTest, CpuParkedReflectsWaitForInterrupt) {
  bool observed_parked = false;
  std::vector<std::function<void()>> bodies;
  bodies.push_back([this, &observed_parked]() {
    machine_.Charge(100);  // Give CPU 1 time to park.
    observed_parked = machine_.CpuParked(1);
    kernel_.priv_.SendIpi(1, 0);  // Wake it so RunCpus can finish.
  });
  bodies.push_back([this]() { machine_.WaitForInterrupt(); });
  bodies.push_back([] {});
  bodies.push_back([] {});
  machine_.RunCpus(std::move(bodies));
  EXPECT_TRUE(observed_parked);
  EXPECT_FALSE(machine_.CpuParked(1));
}

TEST_F(SmpMachineTest, StandaloneHangAborts) {
  // Every CPU idles with nothing pending: the implicit World a standalone
  // machine runs its CPUs in quiesces, and the machine reports the hang
  // rather than returning from RunCpus with its CPU bodies unfinished.
  EXPECT_DEATH(
      {
        std::vector<std::function<void()>> bodies;
        for (int i = 0; i < 4; ++i) {
          bodies.push_back([this] {
            for (;;) {
              machine_.WaitForInterrupt();
            }
          });
        }
        machine_.RunCpus(std::move(bodies));
      },
      "all CPUs idle with no pending events");
}

TEST_F(SmpMachineTest, RemoteFlushDropsOnlyTheTargetsEntries) {
  std::vector<std::function<void()>> bodies;
  uint32_t dropped_live = 0;
  uint32_t dropped_again = 0;
  bodies.push_back([this]() {
    (void)machine_.StoreWord(0x2000, 7);  // vpn 2 -> pfn 2 on CPU 0.
    machine_.Charge(200);                 // Let CPU 1 map it too, then flush.
  });
  bodies.push_back([this, &dropped_live, &dropped_again]() {
    (void)machine_.LoadWord(0x2000);
    machine_.Charge(50);
    dropped_live = kernel_.priv_.TlbRemoteFlushPfn(0, 2);
    dropped_again = kernel_.priv_.TlbRemoteFlushPfn(0, 2);
    // CPU 1's own entry survives its flush of CPU 0.
    EXPECT_TRUE(machine_.LoadWord(0x2000).ok());
  });
  bodies.push_back([] {});
  bodies.push_back([] {});
  const size_t misses_before = kernel_.exceptions.size();
  machine_.RunCpus(std::move(bodies));
  EXPECT_EQ(dropped_live, 1u);
  EXPECT_EQ(dropped_again, 0u);  // Idempotent once dropped.
  // CPU 0's store missed, CPU 1's load missed; the post-flush re-read on
  // CPU 1 hit its still-private entry.
  EXPECT_EQ(kernel_.exceptions.size() - misses_before, 2u);
}

TEST_F(SmpMachineTest, ScheduledEventsStayOnTheCallingCpu) {
  std::vector<std::function<void()>> bodies;
  uint32_t interrupted_cpu = ~0u;
  bodies.push_back([this]() { machine_.Charge(100); });
  bodies.push_back([this, &interrupted_cpu]() {
    kernel_.priv_.ScheduleEvent(10, InterruptSource::kDiskDone, 1);
    machine_.Charge(100);
    if (!kernel_.interrupts.empty()) {
      interrupted_cpu = machine_.current_cpu();
    }
  });
  bodies.push_back([] {});
  bodies.push_back([] {});
  machine_.RunCpus(std::move(bodies));
  EXPECT_EQ(interrupted_cpu, 1u);
}

}  // namespace
}  // namespace xok::hw
