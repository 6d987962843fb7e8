// Deterministic cooperative scheduler ("the simulator").
//
// Virtual processes are real threads run in strict lockstep: exactly one
// process executes at a time, and control returns to the scheduler at
// every sched::point() (i.e., before every shared-register access). A
// SchedulePolicy chooses which runnable process takes the next step, so
// an execution is fully determined by (program, policy) — replayable,
// scriptable (paper Figure 4), and enumerable (BoundedExhaustive).
//
// Processes must synchronize only through the library's registers; any
// other blocking inside a process body would deadlock the lockstep.
//
// Only one thread of a run is ever runnable, so run() pins the caller
// and every process thread to the CPU the caller is on when it starts:
// each step's two semaphore handoffs then wake a thread on the same
// CPU instead of sending a wake-up across CPUs. The caller's own mask
// is restored when run() returns.
#pragma once

#include <sched.h>

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/policy.h"
#include "sched/schedule_point.h"

namespace compreg::sched {

// The CPUs the calling thread may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();

// Pins the calling thread to `cpu` for this object's lifetime, then
// restores the thread's previous mask. Threads started meanwhile
// inherit the pin. A negative cpu, or a pin the system refuses, leaves
// the mask alone.
class CpuPin {
 public:
  explicit CpuPin(int cpu);
  ~CpuPin();

  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// A process body let a non-ProcessParked exception escape. The
// scheduler absorbs it on the process thread (so the lockstep keeps
// running and every other process finishes), then run() rethrows it
// wrapped in this, carrying the offender and where in the schedule it
// died. `original` is the escaped exception for callers that need it.
struct ProcessBodyError : std::runtime_error {
  ProcessBodyError(std::string msg, int proc, std::uint64_t position,
                   std::exception_ptr orig)
      : std::runtime_error(std::move(msg)),
        proc_id(proc),
        trace_position(position),
        original(std::move(orig)) {}

  int proc_id;
  std::uint64_t trace_position;  // trace().size() when the body died
  std::exception_ptr original;
};

class SimScheduler {
 public:
  explicit SimScheduler(SchedulePolicy& policy) : policy_(policy) {}
  ~SimScheduler();

  SimScheduler(const SimScheduler&) = delete;
  SimScheduler& operator=(const SimScheduler&) = delete;

  // Register a virtual process. Must be called before run().
  // Returns the process id handed to the policy.
  int spawn(std::function<void()> body);

  // Execute all processes to completion under the policy. Throws
  // ProcessBodyError after all processes have finished if any body let
  // an exception other than ProcessParked escape.
  void run();

  // Fault injection (scheduler side, used by fault::FaultInjectingPolicy
  // and tests): the next turn granted to `proc` does not execute its
  // access — the process crash-stops there (throws ProcessParked into
  // it) or hangs forever (blocks without returning control, wedging the
  // run; only for exercising watchdogs). Call between policy decisions,
  // i.e. from SchedulePolicy::pick or before run().
  void inject_crash_on_next_grant(int proc);
  void inject_hang_on_next_grant(int proc);

  // Per-scheduler access observer: labeled accesses reported from this
  // scheduler's virtual processes go here instead of the process-global
  // observer slot (sched/access.h). This is what lets several
  // SimSchedulers run concurrently on different threads — parallel DPOR
  // workers each own a scheduler + recorder pair — without fighting
  // over one global installation. Null (the default) falls back to the
  // global observer.
  void set_observer(AccessObserver* observer) { observer_ = observer; }
  AccessObserver* observer() const { return observer_; }

  // The process id chosen at each schedule point, in order. Useful for
  // asserting that a scripted schedule was actually followed.
  const std::vector<int>& trace() const { return trace_; }

  // Total schedule points taken.
  std::uint64_t steps() const { return trace_.size(); }

  // Internal: called from sched::point() on a virtual-process thread.
  void yield_turn(int proc_id);

 private:
  struct Proc {
    std::function<void()> body;
    std::binary_semaphore go{0};
    std::thread thread;
    bool done = false;       // written by proc thread while it holds the turn
    bool started = false;
    // Injected faults, armed by the control thread before granting the
    // turn and consumed by the proc thread after acquiring it (the
    // semaphore handoff orders the accesses).
    bool crash_next = false;
    bool hang_next = false;
    // Set by the proc thread (while holding the turn) when the body let
    // a non-ProcessParked exception escape; reported from run().
    std::exception_ptr error;
    std::uint64_t error_position = 0;
  };

  void proc_main(int id);

  SchedulePolicy& policy_;
  AccessObserver* observer_ = nullptr;
  std::deque<Proc> procs_;  // deque: semaphores are immovable
  std::binary_semaphore control_{0};
  std::vector<int> trace_;
  bool ran_ = false;
};

}  // namespace compreg::sched
