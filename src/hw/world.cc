#include "src/hw/world.h"

#include <cstdio>
#include <cstdlib>

#include "src/hw/machine.h"

namespace xok::hw {

void World::Attach(Machine* machine) {
  machine->world_index_ = static_cast<uint32_t>(machines_.size());
  machines_.push_back(machine);
}

uint64_t World::CtxClockNow(const Ctx& ctx) const {
  return ctx.machine->cpu(ctx.cpu).clock().now();
}

uint64_t World::CtxNextDue(const Ctx& ctx) const {
  return ctx.machine->cpu(ctx.cpu).NextDueCycle();
}

void World::Run(std::vector<std::function<void()>> bodies) {
  if (bodies.size() != machines_.size()) {
    std::fprintf(stderr, "xok: World::Run needs one body per attached machine\n");
    std::abort();
  }
  ctxs_.clear();
  for (size_t i = 0; i < machines_.size(); ++i) {
    auto ctx = std::make_unique<Ctx>();
    ctx->machine = machines_[i];
    ctx->cpu = 0;
    ctx->body = true;
    ctx->state = CtxState::kReady;
    auto body = std::move(bodies[i]);
    ctx->owned = std::make_unique<Fiber>([this, body = std::move(body)]() {
      body();
      FinishCurrent();
    });
    ctx->fiber = ctx->owned.get();
    ctxs_.push_back(std::move(ctx));
  }
  scheduling_ = true;
  Schedule();
  scheduling_ = false;
  for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
    // Quiesced contexts stay parked forever; their CPUs no longer are.
    ctx->machine->cpu(ctx->cpu).world_parked_ = false;
  }
}

void World::Schedule() {
  // Lowest-local-clock-first over every context of every machine: among
  // ready contexts pick the one whose clock is furthest behind; wake a
  // parked context instead when its next event is due no later than every
  // ready context's present, advancing its clock to the due cycle. Ties
  // break by scan order — machine bodies in attach order, then RunCpus CPUs
  // by cpu index in the order their machines entered RunCpus — so runs are
  // deterministic. When nothing is ready and nothing is due, sweep the
  // parked RunCpus contexts with spurious wakes so their kernel loops can
  // observe a global exit condition; if a full sweep changes nothing the
  // world quiesces, returning with any still-parked bodies abandoned (the
  // longstanding single-CPU world contract).
  bool swept = false;
  for (;;) {
    if (groups_finished_ > 0) {
      RetireFinishedGroups();
    }
    Ctx* best_ready = nullptr;
    Ctx* best_parked = nullptr;
    uint64_t parked_due = kNever;
    bool any_parked = false;
    for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
      if (ctx->state == CtxState::kReady) {
        if (best_ready == nullptr || CtxClockNow(*ctx) < CtxClockNow(*best_ready)) {
          best_ready = ctx.get();  // Scan order is the tie-break.
        }
      } else if (ctx->state == CtxState::kParked) {
        any_parked = true;
        const uint64_t due = CtxNextDue(*ctx);
        if (due < parked_due) {
          parked_due = due;
          best_parked = ctx.get();
        }
      }
    }
    if (best_parked != nullptr && parked_due != kNever &&
        (best_ready == nullptr || parked_due <= CtxClockNow(*best_ready))) {
      best_parked->machine->cpu(best_parked->cpu).clock().AdvanceTo(parked_due);
      swept = false;
      ResumeCtx(best_parked);
      continue;
    }
    if (best_ready != nullptr) {
      swept = false;
      ResumeCtx(best_ready);
      continue;
    }
    if (!any_parked) {
      return;  // Every body returned.
    }
    if (swept) {
      return;  // Swept with no progress: quiescent.
    }
    swept = true;
    const uint64_t epoch = progress_epoch_;
    for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
      // Only RunCpus contexts: their kernel loops re-check run conditions on
      // spurious wakes. Plain bodies inside WaitForInterrupt would just
      // re-park without being able to make progress.
      if (ctx->state == CtxState::kParked && !ctx->body) {
        ResumeCtx(ctx.get());
      }
    }
    if (progress_epoch_ != epoch) {
      swept = false;
    }
  }
}

void World::ResumeCtx(Ctx* ctx) {
  ctx->state = CtxState::kRunning;
  Cpu& cpu = ctx->machine->cpu(ctx->cpu);
  cpu.world_parked_ = false;
  ctx->machine->active_ = &cpu;
  running_ = ctx;
  RecomputeCaches();
  Fiber::Switch(world_fiber_, *ctx->fiber);
  running_ = nullptr;
}

void World::YieldCurrent() {
  Ctx* ctx = running_;
  ctx->state = CtxState::kReady;
  Fiber::Switch(*ctx->fiber, world_fiber_);
}

void World::ParkCurrent() {
  if (!scheduling_ || running_ == nullptr) {
    std::fprintf(stderr, "xok: WaitForInterrupt on a world machine outside World::Run\n");
    std::abort();
  }
  Ctx* ctx = running_;
  ctx->state = CtxState::kParked;
  ctx->machine->cpu(ctx->cpu).world_parked_ = true;
  Fiber::Switch(*ctx->fiber, world_fiber_);
}

void World::FinishCurrent() {
  Ctx* ctx = running_;
  ctx->state = CtxState::kDone;
  ++progress_epoch_;
  if (ctx->group != nullptr && ++ctx->group->cpus_done == ctx->machine->cpu_count()) {
    ++groups_finished_;
  }
  for (;;) {
    Fiber::Switch(*ctx->fiber, world_fiber_);
  }
}

void World::RunCpusBlock(Machine* machine) {
  if (!scheduling_ || running_ == nullptr || running_->machine != machine ||
      !running_->body) {
    std::fprintf(stderr, "xok: machine %s: RunCpus on a world machine outside its body\n",
                 machine->name());
    std::abort();
  }
  Ctx* body = running_;
  for (uint32_t i = 0; i < machine->cpu_count(); ++i) {
    auto ctx = std::make_unique<Ctx>();
    ctx->machine = machine;
    ctx->cpu = i;
    ctx->body = false;
    ctx->fiber = machine->cpus_[i]->fiber_.get();
    ctx->state = CtxState::kReady;
    ctx->group = body;
    ctxs_.push_back(std::move(ctx));
  }
  ++progress_epoch_;
  body->state = CtxState::kBlocked;
  Fiber::Switch(*body->fiber, world_fiber_);
  // Resumed: every CPU body has returned and the contexts are retired.
}

void World::RetireFinishedGroups() {
  groups_finished_ = 0;
  for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
    if (ctx->body && ctx->state == CtxState::kBlocked &&
        ctx->cpus_done == ctx->machine->cpu_count()) {
      ctx->state = CtxState::kReady;
      ctx->cpus_done = 0;
      ++progress_epoch_;
    }
  }
  // A RunCpus context lives only while its body is blocked on it.
  std::erase_if(ctxs_, [](const std::unique_ptr<Ctx>& c) {
    return !c->body && c->group->state != CtxState::kBlocked;
  });
}

void World::NoteEventPosted(Cpu& cpu, uint64_t due_cycle) {
  ++progress_epoch_;
  // Only a parked context's due time is cached; the running context checks
  // its own queue, and ready contexts are cached by clock, not by events.
  if (cpu.world_parked_ && due_cycle < parked_min_due_) {
    parked_min_due_ = due_cycle;
  }
}

void World::RecomputeCaches() {
  parked_min_due_ = kNever;
  ready_min_clock_ = kNever;
  for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
    if (ctx->state == CtxState::kParked) {
      const uint64_t due = CtxNextDue(*ctx);
      if (due < parked_min_due_) {
        parked_min_due_ = due;
      }
    } else if (ctx->state == CtxState::kReady) {
      const uint64_t now = CtxClockNow(*ctx);
      if (now < ready_min_clock_) {
        ready_min_clock_ = now;
      }
    }
  }
}

}  // namespace xok::hw
