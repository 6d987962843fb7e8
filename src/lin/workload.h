// Workload drivers: run concurrent Read/Write traffic against any
// Snapshot implementation and record the history for the checkers.
//
// The drivers are crash-aware: when fault injection parks a process
// mid-operation (sched::ProcessParked), the interrupted operation is
// recorded as pending (end == lin::kPendingEnd) before the process
// halts — a pending Write carries the id it would have been assigned
// (ids are per-component sequential in every implementation here), a
// pending Read carries no ids/values. Every record also carries the
// operation's base-register cost for wait-freedom certification.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/item.h"
#include "core/multi_writer.h"
#include "core/snapshot.h"
#include "lin/history.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"

namespace compreg::lin {

struct WorkloadConfig {
  int writes_per_writer = 100;
  int scans_per_reader = 100;
  std::uint64_t initial = 0;
  // Native-threads mode: per-mille probability of a yield at every
  // schedule point, to diversify interleavings (0 = free-running).
  unsigned stress_permille = 0;
  // Bursty writers: after every `burst` writes, spin for `pause_spins`
  // iterations. Quiet gaps exercise the statement-8 cases the helping
  // path does not cover (and vice versa). 0 = continuous.
  int burst = 0;
  unsigned pause_spins = 0;
  std::uint64_t seed = 1;
};

// Encodes a unique, self-describing value for write i of component k.
inline std::uint64_t write_value(int component, std::uint64_t i) {
  return (static_cast<std::uint64_t>(component + 1) << 32) | i;
}

// One writer thread per component plus one thread per reader slot,
// free-running on native threads.
History run_native_workload(core::Snapshot<std::uint64_t>& snap,
                            const WorkloadConfig& cfg);

// Same process structure under the deterministic simulator; the policy
// decides every step. The entire execution is serialized, so this is
// for schedule-sensitive verification rather than throughput. `on_sim`,
// when set, is invoked after the processes are spawned and before
// run() — fault::FaultInjectingPolicy uses it to attach its crash
// hooks to the scheduler.
History run_sim_workload(
    core::Snapshot<std::uint64_t>& snap, sched::SchedulePolicy& policy,
    const WorkloadConfig& cfg,
    const std::function<void(sched::SimScheduler&)>& on_sim = {});

// Lower-level form for callers that own the scheduler (the DPOR engine
// builds a fresh SimScheduler per explored schedule): spawns the same
// writer/reader process structure into `sim` and returns the recorder
// the processes write into. Caller runs the scheduler, then calls
// merge() on the recorder for the history.
std::shared_ptr<HistoryRecorder> spawn_sim_workload(
    sched::SimScheduler& sim, core::Snapshot<std::uint64_t>& snap,
    const WorkloadConfig& cfg);

// One of the paper's Figure 4 executions, or one of the two remaining
// branches of Reader statement 8, as an exact scripted schedule on a
// C=2, R=1 composite register. Process 0 is the reader (one scan),
// process 1 is Writer 0 (0-Writes of 101, 102, ...), process 2 is
// Writer 1 (1-Writes of 201, 202, ...). The script names the process of
// every shared-register access; workload.cpp maps each step.
struct Fig4Execution {
  const char* name;
  const char* expectation;  // what statement 8 must do
  std::vector<int> script;
  int w0_writes;
  int w1_writes;
  // Write ids the scan must return for components 0 and 1.
  std::uint64_t want_id0;
  std::uint64_t want_id1;
};

// Figure 4(a), Figure 4(b), statement 8 case 3, statement 8 case 4.
const std::vector<Fig4Execution>& fig4_executions();

struct Fig4Replay {
  std::vector<core::Item<std::uint64_t>> scan;
  std::vector<int> trace;  // process id of every grant, in order
  History history;
};

// Replays `e` on a fresh CompositeRegister(2, 1, 0), recording every
// operation for the checkers.
Fig4Replay replay_fig4(const Fig4Execution& e);

struct MwWorkloadConfig {
  int writes_per_process = 50;
  int scans_per_reader = 50;
  std::uint64_t initial = 0;
  unsigned stress_permille = 0;
  std::uint64_t seed = 1;
};

// Multi-writer driver: every process writes random components.
History run_native_workload_mw(core::MultiWriterSnapshot<std::uint64_t>& snap,
                               const MwWorkloadConfig& cfg);

}  // namespace compreg::lin
