#include "src/hw/fiber.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace xok::hw {
namespace {

TEST(Fiber, PingPongBetweenTwoFibers) {
  std::vector<int> trace;
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  Fiber child([&] {
    trace.push_back(1);
    Fiber::Switch(*child_ptr, main_fiber);
    trace.push_back(3);
    Fiber::Switch(*child_ptr, main_fiber);
    for (;;) {
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;

  trace.push_back(0);
  Fiber::Switch(main_fiber, child);
  trace.push_back(2);
  Fiber::Switch(main_fiber, child);
  trace.push_back(4);

  EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Fiber, ThreeWayRoundRobinPreservesStacks) {
  Fiber main_fiber;
  Fiber* fibers[3] = {nullptr, nullptr, nullptr};
  int counters[3] = {0, 0, 0};
  std::unique_ptr<Fiber> storage[3];

  for (int i = 0; i < 3; ++i) {
    storage[i] = std::make_unique<Fiber>([&, i] {
      int local = 0;  // Stack-local state must survive switches.
      for (;;) {
        ++local;
        counters[i] = local;
        Fiber::Switch(*fibers[i], main_fiber);
      }
    });
    fibers[i] = storage[i].get();
  }

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) {
      Fiber::Switch(main_fiber, *fibers[i]);
    }
  }
  EXPECT_EQ(counters[0], 5);
  EXPECT_EQ(counters[1], 5);
  EXPECT_EQ(counters[2], 5);
}

TEST(Fiber, DeepStackUsageSurvivesSwitch) {
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  uint64_t result = 0;
  Fiber child([&] {
    // Use a chunk of stack to verify the fiber really has its own.
    volatile uint8_t buffer[64 * 1024];
    for (size_t i = 0; i < sizeof(buffer); ++i) {
      buffer[i] = static_cast<uint8_t>(i);
    }
    uint64_t sum = 0;
    for (size_t i = 0; i < sizeof(buffer); ++i) {
      sum += buffer[i];
    }
    result = sum;
    for (;;) {
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;
  Fiber::Switch(main_fiber, child);
  EXPECT_EQ(result, 64u * 1024u / 256u * (255u * 256u / 2u));
}

#if defined(__x86_64__)
uint16_t ReadX87ControlWord() {
  uint16_t cw = 0;
  asm volatile("fnstcw %0" : "=m"(cw));
  return cw;
}

void WriteX87ControlWord(uint16_t cw) { asm volatile("fldcw %0" : : "m"(cw)); }

// 1/3 in single precision under the current MXCSR rounding mode.
float SseThird() {
  volatile float one = 1.0f;
  volatile float three = 3.0f;
  return _mm_cvtss_f32(_mm_div_ss(_mm_set_ss(one), _mm_set_ss(three)));
}

TEST(Fiber, FloatingPointControlStateIsPerFiber) {
  constexpr uint32_t kRoundingBits = 0x6000;  // MXCSR RC field.
  constexpr uint16_t kX87RoundingBits = 0x0c00;  // x87 CW RC field.
  const uint32_t main_mxcsr = _mm_getcsr();
  const uint16_t main_cw = ReadX87ControlWord();

  Fiber main_fiber;
  Fiber* up_ptr = nullptr;
  Fiber* down_ptr = nullptr;
  std::vector<uint32_t> up_seen;
  std::vector<uint32_t> down_seen;
  float up_third = 0;
  float down_third = 0;
  uint16_t up_cw = 0;
  uint16_t down_cw = 0;
  Fiber up([&] {
    _mm_setcsr((_mm_getcsr() & ~kRoundingBits) | 0x4000);  // Round up.
    WriteX87ControlWord(static_cast<uint16_t>((ReadX87ControlWord() & ~kX87RoundingBits) | 0x0800));
    for (;;) {
      Fiber::Switch(*up_ptr, main_fiber);
      up_seen.push_back(_mm_getcsr() & kRoundingBits);
      up_third = SseThird();
      up_cw = ReadX87ControlWord();
    }
  });
  Fiber down([&] {
    down_seen.push_back(_mm_getcsr() & kRoundingBits);  // Before setting: inherited.
    _mm_setcsr((_mm_getcsr() & ~kRoundingBits) | 0x2000);  // Round down.
    WriteX87ControlWord(static_cast<uint16_t>((ReadX87ControlWord() & ~kX87RoundingBits) | 0x0400));
    for (;;) {
      Fiber::Switch(*down_ptr, main_fiber);
      down_seen.push_back(_mm_getcsr() & kRoundingBits);
      down_third = SseThird();
      down_cw = ReadX87ControlWord();
    }
  });
  up_ptr = &up;
  down_ptr = &down;

  Fiber::Switch(main_fiber, up);
  EXPECT_EQ(_mm_getcsr(), main_mxcsr);  // `up`'s mode did not leak out.
  EXPECT_EQ(ReadX87ControlWord(), main_cw);
  Fiber::Switch(main_fiber, down);
  for (int round = 0; round < 3; ++round) {
    Fiber::Switch(main_fiber, up);
    Fiber::Switch(main_fiber, down);
    EXPECT_EQ(_mm_getcsr(), main_mxcsr);
    EXPECT_EQ(ReadX87ControlWord(), main_cw);
  }

  EXPECT_EQ(up_seen, std::vector<uint32_t>(3, 0x4000u));
  EXPECT_EQ(down_seen, (std::vector<uint32_t>{main_mxcsr & kRoundingBits, 0x2000, 0x2000, 0x2000}));
  EXPECT_EQ(up_cw & kX87RoundingBits, 0x0800);
  EXPECT_EQ(down_cw & kX87RoundingBits, 0x0400);
  EXPECT_GT(up_third, down_third);  // The modes really differ in arithmetic.
  EXPECT_EQ(SseThird(), 1.0f / 3.0f);
}

// Doubles four floats with aligned SSE loads and stores (movaps faults on a
// misaligned address) and returns how far `lanes` is off 16-byte alignment.
// Out of line, so the compiler cannot fold the check from what it assumes.
[[gnu::noinline]] uintptr_t DoubleLanes(float* lanes) {
  __m128 v = _mm_load_ps(lanes);
  _mm_store_ps(lanes, _mm_add_ps(v, v));
  return reinterpret_cast<uintptr_t>(lanes) % 16;
}

TEST(Fiber, EntrySeesAnAlignedStackForSse) {
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  uintptr_t misalignment = 1;
  float sum = 0;
  Fiber child([&] {
    // The compiler assumes an ABI-aligned stack and does not realign for a
    // 16-byte local, so a misaligned fiber stack misaligns this array.
    alignas(16) float lanes[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    misalignment = DoubleLanes(lanes);
    sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (;;) {
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;
  Fiber::Switch(main_fiber, child);
  EXPECT_EQ(misalignment, 0u);
  EXPECT_EQ(sum, 20.0f);
}
#endif  // __x86_64__

[[gnu::noinline]] void ThrowFrom(int depth) {
  if (depth == 0) {
    throw std::runtime_error("thrown inside a fiber");
  }
  ThrowFrom(depth - 1);
}

TEST(Fiber, ExceptionThrownAndCaughtInsideAFiber) {
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  std::vector<std::string> caught;
  Fiber child([&] {
    for (;;) {
      try {
        ThrowFrom(8);
      } catch (const std::runtime_error& e) {
        caught.push_back(e.what());
      }
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;
  Fiber::Switch(main_fiber, child);
  Fiber::Switch(main_fiber, child);
  EXPECT_EQ(caught, (std::vector<std::string>(2, "thrown inside a fiber")));
  // The main context still unwinds normally after the switches.
  EXPECT_THROW(ThrowFrom(3), std::runtime_error);
}

TEST(Fiber, SixtyFourFibersRoundRobinThenDestroyed) {
  constexpr int kFibers = 64;
  constexpr int kRounds = 10;
  Fiber main_fiber;
  std::vector<std::unique_ptr<Fiber>> fibers(kFibers);
  std::vector<int> counters(kFibers, 0);
  for (int i = 0; i < kFibers; ++i) {
    fibers[i] = std::make_unique<Fiber>([&, i] {
      for (int local = 1;; ++local) {
        counters[i] = local;
        Fiber::Switch(*fibers[i], main_fiber);
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kFibers; ++i) {
      Fiber::Switch(main_fiber, *fibers[i]);
    }
  }
  EXPECT_EQ(counters, std::vector<int>(kFibers, kRounds));
  fibers.clear();  // Suspended fibers are destroyed without resuming.

  // Fresh fibers on the released stacks start cleanly.
  int ran = 0;
  Fiber* again_ptr = nullptr;
  Fiber again([&] {
    for (;;) {
      ++ran;
      Fiber::Switch(*again_ptr, main_fiber);
    }
  });
  again_ptr = &again;
  Fiber::Switch(main_fiber, again);
  EXPECT_EQ(ran, 1);
}

TEST(FiberDeathTest, ReturningEntryAborts) {
  EXPECT_DEATH(
      {
        Fiber main_fiber;
        Fiber child([] {});
        Fiber::Switch(main_fiber, child);
      },
      "fiber entry returned");
}

// Recurses with a 1 KB frame until the depth runs out; no tail call.
[[gnu::noinline]] int Recurse(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) {
    return frame[0];
  }
  return Recurse(depth - 1) + frame[0];
}

#if defined(__SANITIZE_ADDRESS__)
void OverflowAFiberStack() {
  Fiber main_fiber;
  Fiber child([] { std::printf("%d\n", Recurse(1 << 20)); }, 64 * 1024);
  Fiber::Switch(main_fiber, child);
}

TEST(FiberDeathTest, StackOverflowHitsTheGuardPage) {
  // ASan reports the overflow itself, from its own signal stack.
  EXPECT_DEATH(OverflowAFiberStack(), "stack-overflow");
}
#else
constexpr size_t kSmallStack = 64 * 1024;
uintptr_t guard_page = 0;  // Low address of the overflowing fiber's guard.

void ExitWithFaultVerdict(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<uintptr_t>(info->si_addr);
  _exit(addr >= guard_page && addr < guard_page + static_cast<uintptr_t>(getpagesize()) ? 42 : 43);
}

// Overflows a 64 KB fiber stack and exits 42 iff the first fault lands in
// the page right below it; a SIGSEGV handler on an alternate stack reads the
// fault address.
void OverflowAFiberStack() {
  static char signal_stack[64 * 1024];
  stack_t alt{};
  alt.ss_sp = signal_stack;
  alt.ss_size = sizeof(signal_stack);
  sigaltstack(&alt, nullptr);
  struct sigaction action {};
  action.sa_sigaction = ExitWithFaultVerdict;
  action.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &action, nullptr);

  Fiber main_fiber;
  Fiber child(
      [] {
        // The stack's top is the end of its page-aligned mapping, a few
        // frames above this local.
        const uintptr_t page = static_cast<uintptr_t>(getpagesize());
        char marker = 0;
        const uintptr_t top = (reinterpret_cast<uintptr_t>(&marker) + page - 1) & ~(page - 1);
        guard_page = top - kSmallStack - page;
        std::printf("%d\n", Recurse(1 << 20));
      },
      kSmallStack);
  Fiber::Switch(main_fiber, child);
}

TEST(FiberDeathTest, StackOverflowHitsTheGuardPage) {
  EXPECT_EXIT(OverflowAFiberStack(), testing::ExitedWithCode(42), "");
}
#endif

}  // namespace
}  // namespace xok::hw
