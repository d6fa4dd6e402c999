// Cooperative execution contexts ("fibers"). Each simulated processor
// environment, each Ultrix process, and each machine in a multi-machine world
// runs on its own fiber; kernels switch between them deterministically. This
// stands in for real hardware context switching — the *cost* of a switch is
// charged separately by the kernels, per register actually saved/restored in
// their model.
//
// On x86-64 a switch is a few instructions with no system call: it saves the
// callee-saved registers, MXCSR and the x87 control word on the fiber's own
// stack and swaps stack pointers (fiber.cc). Other hosts fall back to
// ucontext. Each stack is its own demand-zero mapping with an inaccessible
// guard page at its low end, so an overflow traps instead of overwriting a
// neighbour.
#ifndef XOK_SRC_HW_FIBER_H_
#define XOK_SRC_HW_FIBER_H_

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>

#include "src/hw/host_pages.h"

namespace xok::hw {

class Fiber {
 public:
  using Entry = std::function<void()>;

  // Wraps the currently-executing context. Switching away from and back to
  // this fiber resumes here. Used for kernel scheduler loops.
  Fiber();

  // Creates a suspended fiber that will run `entry` when first switched to.
  // `entry` must not return: when its work is done it must arrange a switch
  // elsewhere (kernels enforce this via their exit syscalls); a returning
  // entry aborts the process, because there is nowhere to go.
  explicit Fiber(Entry entry, size_t stack_bytes = kDefaultStackBytes);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Saves the current context into `from` and resumes `to`.
  static void Switch(Fiber& from, Fiber& to);

  static constexpr size_t kDefaultStackBytes = 256 * 1024;

 private:
  [[noreturn]] static void Run(Fiber* self) noexcept;

#if defined(__x86_64__)
  void* sp_ = nullptr;  // Saved stack pointer while suspended.
#else
  static void Trampoline(unsigned hi, unsigned lo);
  ucontext_t context_{};
#endif
  HostPages stack_;  // Guard page + stack; empty for the wrapping constructor.
  Entry entry_;
#if defined(__SANITIZE_ADDRESS__)
  // The stack ASan is told it switches to. For a wrapping fiber it is
  // learned when the fiber is first left.
  const void* asan_stack_bottom_ = nullptr;
  size_t asan_stack_bytes_ = 0;
#endif
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_FIBER_H_
