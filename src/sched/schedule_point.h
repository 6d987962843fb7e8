// Schedule points: the hook that gives the library the paper's
// interleaving semantics.
//
// Every shared-register access in src/registers calls sched::point()
// immediately before it takes effect. Under the deterministic simulator
// (SimScheduler) the calling virtual process blocks there until the
// schedule policy grants it the next step, so an entire execution is a
// sequence of atomic statements chosen by the policy — exactly the
// history model of Section 2 of the paper. Under native threads the
// call is a no-op by default, or a randomized yield in stress mode
// (StressInterleaving) to diversify real interleavings.
#pragma once

#include <cstdint>

#include "sched/access.h"
#include "util/rng.h"

namespace compreg::sched {

class SimScheduler;

struct ThreadContext {
  // Set when the thread is a virtual process of a SimScheduler.
  SimScheduler* scheduler = nullptr;
  int proc_id = -1;

  // Fault injection (simulator only): when nonzero, the process halts
  // (throws ProcessParked) after this many further schedule points —
  // modelling a halting failure in the middle of an operation.
  std::uint64_t park_after_points = 0;

  // Native stress mode: probability (per mille) of yielding at a point.
  unsigned stress_yield_permille = 0;
  Rng stress_rng{0};
};

namespace detail {
// constinit: constant-initialized with a trivial destructor, so reaching
// it is one TLS-relative access with no init guard.
inline thread_local constinit ThreadContext t_context;

// point(access) past its native fast path: unchanged scheduling,
// stress and observer behavior.
void point_slow(const Access& access);
}  // namespace detail

inline ThreadContext& thread_context() { return detail::t_context; }

// Called before every shared-register access.
void point();

// Labeled form: identical scheduling behavior, and additionally reports
// the access descriptor to the installed AccessObserver (access.h) once
// the calling process holds the turn — i.e. immediately before the
// access takes effect. An access whose process crashes at this point
// (ProcessParked) is never reported: it never executed.
//
// On a native thread with no stress mode and no observer installed the
// point has nothing to do: the inline check below returns after one
// look at this thread's context and one load of the observer slot.
// always_inline: left to itself, GCC -O3 keeps an out-of-line copy for
// the large recursive Read bodies, so every access paid a call and
// built its descriptor on the stack.
[[gnu::always_inline]] inline void point(const Access& access) {
  const ThreadContext& ctx = thread_context();
  if (ctx.scheduler == nullptr && ctx.stress_yield_permille == 0 &&
      access_observer() == nullptr) [[likely]] {
    return;
  }
  detail::point_slow(access);
}

// Report an access to the observer WITHOUT taking a schedule point.
// For sub-model-granularity registers (SimpsonRegister) whose
// operations execute inside the enclosing cell's schedule point but
// still carry a usage discipline worth certifying.
void observe(const Access& access);

// Thrown from point() when a park budget expires. Simulator process
// bodies may catch it to record the interrupted operation; uncaught, it
// is absorbed by the scheduler's process wrapper and the process simply
// counts as halted.
struct ProcessParked {};

// Halt the calling simulator process after `points` further schedule
// points — i.e. in the middle of whatever operation it is executing
// then. Wait-freedom (paper Section 1) promises that no other process
// is affected; tests/core/fault_injection_test.cpp holds the
// construction to that.
void park_after(std::uint64_t points);

// RAII: enable randomized yields at schedule points on this thread.
class StressInterleaving {
 public:
  StressInterleaving(unsigned permille, std::uint64_t seed);
  ~StressInterleaving();

  StressInterleaving(const StressInterleaving&) = delete;
  StressInterleaving& operator=(const StressInterleaving&) = delete;

 private:
  unsigned prev_permille_;
};

}  // namespace compreg::sched
