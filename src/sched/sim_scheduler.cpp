#include "sched/sim_scheduler.h"

#include <pthread.h>

#include <sstream>

#include "util/assert.h"

namespace compreg::sched {

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

CpuPin::CpuPin(int cpu) {
  CPU_ZERO(&saved_);
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  const pthread_t self = pthread_self();
  if (pthread_getaffinity_np(self, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = pthread_setaffinity_np(self, sizeof(one), &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

SimScheduler::~SimScheduler() {
  for (Proc& proc : procs_) {
    COMPREG_CHECK(!proc.thread.joinable(),
                  "SimScheduler destroyed with live processes; run() must "
                  "complete first");
  }
}

int SimScheduler::spawn(std::function<void()> body) {
  COMPREG_CHECK(!ran_, "spawn() after run()");
  const int id = static_cast<int>(procs_.size());
  procs_.emplace_back();
  procs_.back().body = std::move(body);
  return id;
}

void SimScheduler::inject_crash_on_next_grant(int proc) {
  COMPREG_CHECK(proc >= 0 && proc < static_cast<int>(procs_.size()),
                "inject_crash_on_next_grant: no process %d", proc);
  procs_[static_cast<std::size_t>(proc)].crash_next = true;
}

void SimScheduler::inject_hang_on_next_grant(int proc) {
  COMPREG_CHECK(proc >= 0 && proc < static_cast<int>(procs_.size()),
                "inject_hang_on_next_grant: no process %d", proc);
  procs_[static_cast<std::size_t>(proc)].hang_next = true;
}

void SimScheduler::proc_main(int id) {
  ThreadContext& ctx = thread_context();
  ctx.scheduler = this;
  ctx.proc_id = id;
  Proc& self = procs_[static_cast<std::size_t>(id)];
  self.go.acquire();  // first grant: run to the first schedule point
  try {
    self.body();
  } catch (const ProcessParked&) {
    // Injected halting failure: the process stops here, mid-operation.
  } catch (...) {
    // Anything else is a bug in the process body. Letting it escape
    // would std::terminate the whole program off this detached-looking
    // thread; capture it instead and let run() report it after the
    // remaining processes finish.
    self.error = std::current_exception();
    self.error_position = trace_.size();
  }
  self.done = true;
  control_.release();
}

void SimScheduler::yield_turn(int proc_id) {
  control_.release();
  Proc& self = procs_[static_cast<std::size_t>(proc_id)];
  self.go.acquire();
  if (self.hang_next) {
    // Injected hang: never return control. The run wedges here — this
    // models a hung native process and exists to exercise watchdogs.
    for (;;) self.go.acquire();
  }
  if (self.crash_next) {
    self.crash_next = false;
    throw ProcessParked{};
  }
}

void SimScheduler::run() {
  COMPREG_CHECK(!ran_, "run() called twice");
  ran_ = true;
  // Before the threads start, so they inherit the pin.
  const CpuPin pin(sched_getcpu());

  for (std::size_t i = 0; i < procs_.size(); ++i) {
    procs_[i].thread = std::thread(&SimScheduler::proc_main, this,
                                   static_cast<int>(i));
  }

  // Arrival phase: let every process reach its first schedule point (or
  // complete, if it performs no shared access) so that afterwards every
  // policy grant corresponds to exactly one shared-register access.
  for (Proc& proc : procs_) {
    proc.go.release();
    control_.acquire();
    proc.started = true;
  }

  std::vector<int> runnable;
  for (;;) {
    runnable.clear();
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      if (!procs_[i].done) runnable.push_back(static_cast<int>(i));
    }
    if (runnable.empty()) break;
    const int pick = policy_.pick(runnable);
    COMPREG_CHECK(pick >= 0 &&
                      pick < static_cast<int>(procs_.size()) &&
                      !procs_[static_cast<std::size_t>(pick)].done,
                  "policy picked invalid process %d", pick);
    trace_.push_back(pick);
    procs_[static_cast<std::size_t>(pick)].go.release();
    control_.acquire();
  }

  for (Proc& proc : procs_) proc.thread.join();

  for (std::size_t i = 0; i < procs_.size(); ++i) {
    if (!procs_[i].error) continue;
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(procs_[i].error);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    std::ostringstream os;
    os << "process " << i << " threw out of its body at trace position "
       << procs_[i].error_position << ": " << what;
    throw ProcessBodyError(os.str(), static_cast<int>(i),
                           procs_[i].error_position, procs_[i].error);
  }
}

}  // namespace compreg::sched
