#include "src/hw/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
// xok_fiber_switch(save_sp, load_sp) pushes the System V callee-saved
// registers and one slot holding the x87 control word (bytes 0-1) and MXCSR
// (bytes 4-7), stores rsp through `save_sp`, loads `load_sp`, and pops the
// same frame off the other stack. A fresh fiber's first frame "returns" into
// xok_fiber_start, which calls r13(r12): Fiber::Run(this).
asm(R"(
    .text
    .p2align 4
    .globl xok_fiber_switch
    .hidden xok_fiber_switch
    .type xok_fiber_switch, @function
xok_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    fnstcw (%rsp)
    stmxcsr 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    fldcw (%rsp)
    ldmxcsr 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size xok_fiber_switch, .-xok_fiber_switch

    .p2align 4
    .globl xok_fiber_start
    .hidden xok_fiber_start
    .type xok_fiber_start, @function
xok_fiber_start:
    movq %r12, %rdi
    callq *%r13
    ud2
    .size xok_fiber_start, .-xok_fiber_start
)");

extern "C" void xok_fiber_switch(void** save_sp, void* load_sp);
extern "C" void xok_fiber_start();
#endif

namespace xok::hw {
namespace {

size_t HostPageBytes() {
  static const size_t bytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

#if defined(__SANITIZE_ADDRESS__)
// The fiber being left, so the resumed side can record its stack bounds.
thread_local Fiber* switching_from = nullptr;
#endif

}  // namespace

Fiber::Fiber() {
  // Context is filled in by the first Switch() away from this fiber.
}

Fiber::Fiber(Entry entry, size_t stack_bytes)
    : stack_(HostPageBytes() + stack_bytes), entry_(std::move(entry)) {
  // The low page is the guard: the stack grows down into it on overflow.
  if (mprotect(stack_.data(), HostPageBytes(), PROT_NONE) != 0) {
    std::perror("xok: mprotect");
    std::abort();
  }
  uint8_t* bottom = stack_.data() + HostPageBytes();
#if defined(__SANITIZE_ADDRESS__)
  asan_stack_bottom_ = bottom;
  asan_stack_bytes_ = stack_bytes;
#endif
#if defined(__x86_64__)
  // The first frame xok_fiber_switch pops. Its return slot sits 24 bytes
  // below the 16-aligned top, so xok_fiber_start runs with rsp 16-aligned
  // and Run is entered as if by an ordinary call. A new fiber starts with
  // its creator's floating-point control state.
  uintptr_t top = reinterpret_cast<uintptr_t>(bottom + stack_bytes) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<uint64_t*>(top - 80);
  std::memset(frame, 0, 80);
  uint16_t fpu_cw = 0;
  uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  std::memcpy(&frame[0], &fpu_cw, sizeof(fpu_cw));
  std::memcpy(reinterpret_cast<uint8_t*>(&frame[0]) + 4, &mxcsr, sizeof(mxcsr));
  frame[3] = reinterpret_cast<uint64_t>(&Fiber::Run);       // r13
  frame[4] = reinterpret_cast<uint64_t>(this);              // r12
  frame[7] = reinterpret_cast<uint64_t>(&xok_fiber_start);  // Return address.
  sp_ = frame;
#else
  if (getcontext(&context_) != 0) {
    std::perror("getcontext");
    std::abort();
  }
  context_.uc_stack.ss_sp = bottom;
  context_.uc_stack.ss_size = stack_bytes;
  context_.uc_link = nullptr;  // Entries never return; see header contract.
  // makecontext only passes ints portably, so smuggle `this` as two halves.
  auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::Trampoline), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
#endif
}

void Fiber::Switch(Fiber& from, Fiber& to) {
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, to.asan_stack_bottom_, to.asan_stack_bytes_);
  switching_from = &from;
#endif
#if defined(__x86_64__)
  xok_fiber_switch(&from.sp_, to.sp_);
#else
  if (swapcontext(&from.context_, &to.context_) != 0) {
    std::perror("swapcontext");
    std::abort();
  }
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, &switching_from->asan_stack_bottom_,
                                  &switching_from->asan_stack_bytes_);
#endif
}

void Fiber::Run(Fiber* self) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &switching_from->asan_stack_bottom_,
                                  &switching_from->asan_stack_bytes_);
#endif
  self->entry_();
  std::fprintf(stderr, "xok: fiber entry returned without exiting via its kernel\n");
  std::abort();
}

#if !defined(__x86_64__)
void Fiber::Trampoline(unsigned hi, unsigned lo) {
  Run(reinterpret_cast<Fiber*>((static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo)));
}
#endif

}  // namespace xok::hw
