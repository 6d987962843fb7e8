#include "sched/schedule_point.h"

#include <thread>

#include "sched/sim_scheduler.h"

namespace compreg::sched {

void point() {
  ThreadContext& ctx = thread_context();
  if (ctx.scheduler != nullptr) {
    ctx.scheduler->yield_turn(ctx.proc_id);
    if (ctx.park_after_points != 0 && --ctx.park_after_points == 0) {
      throw ProcessParked{};
    }
  } else if (ctx.stress_yield_permille != 0 &&
             ctx.stress_rng.chance(ctx.stress_yield_permille, 1000)) {
    std::this_thread::yield();
  }
}

void detail::point_slow(const Access& access) {
  point();
  observe(access);
}

void observe(const Access& access) {
  ThreadContext& ctx = thread_context();
  // A scheduler-local observer (SimScheduler::set_observer) shadows the
  // process-global slot so concurrent simulators keep their access
  // streams apart (parallel DPOR workers).
  AccessObserver* obs =
      ctx.scheduler != nullptr ? ctx.scheduler->observer() : nullptr;
  if (obs == nullptr) obs = access_observer();
  if (obs != nullptr) [[unlikely]] {
    // Under the simulator the calling process holds the turn here, so
    // trace().size() is this access's schedule position and observer
    // calls are serialized by the lockstep.
    const std::uint64_t pos =
        ctx.scheduler != nullptr ? ctx.scheduler->steps() : 0;
    obs->on_access(access, ctx.proc_id, pos);
  }
}

void park_after(std::uint64_t points) {
  // +1: the budget is decremented after winning the turn for a point,
  // so "park after N points" means the N-th granted access never
  // executes.
  thread_context().park_after_points = points + 1;
}

StressInterleaving::StressInterleaving(unsigned permille, std::uint64_t seed)
    : prev_permille_(thread_context().stress_yield_permille) {
  ThreadContext& ctx = thread_context();
  ctx.stress_yield_permille = permille;
  ctx.stress_rng.reseed(seed);
}

StressInterleaving::~StressInterleaving() {
  thread_context().stress_yield_permille = prev_permille_;
}

}  // namespace compreg::sched
