// Chaos verification: execute fault plans against snapshot workloads
// and certify the paper's crash-tolerance claims.
//
// Two claims are machine-checked here (paper Section 1-2, Wait-Freedom
// restriction):
//   safety    every history produced under crash-stop failures still
//             satisfies the Shrinking Lemma (interrupted operations are
//             recorded as pending and may or may not have taken
//             effect);
//   liveness  every *surviving* process completes its entire program,
//             and every completed Read/Write stays within the TR/TW
//             base-operation bounds — no matter which peers crashed or
//             how the adversary stalls the schedule.
//
// crash_sweep() makes the check exhaustive: it runs the scenario once
// fault-free to learn how many schedule points each process takes, then
// replays it once per (process, point), crashing that process at that
// point, and checks both claims for every resulting history.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "fault/fault_plan.h"
#include "lin/history.h"
#include "lin/shrinking_checker.h"
#include "lin/workload.h"
#include "sched/policy.h"

namespace compreg::fault {

// Certifies wait-freedom of the survivors of a faulty execution from
// its recorded history: every process not doomed by the plan completed
// its expected operation count, and every completed operation (by
// anyone, including a crashed process before its crash) cost at most
// the declared base-operation bound. Costs come from the per-record
// `cost` field the workload drivers fill in; records with cost 0
// (hand-built histories) are bound-exempt.
class WaitFreedomCertifier {
 public:
  WaitFreedomCertifier(std::uint64_t read_bound, std::uint64_t write_bound)
      : read_bound_(read_bound), write_bound_(write_bound) {}

  // Declare process `proc` as the writer of `component` performing
  // `writes` Writes, or as a reader performing `reads` Reads.
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters): paper tuple
  void expect_writer(int proc, int component, int writes);
  void expect_reader(int proc, int reads);

  lin::CheckResult certify(const lin::History& h,
                           const FaultPlan& plan) const;

  std::uint64_t read_bound() const { return read_bound_; }
  std::uint64_t write_bound() const { return write_bound_; }

 private:
  struct Expectation {
    int proc;
    int component;  // -1 for readers
    int ops;
  };

  std::uint64_t read_bound_;
  std::uint64_t write_bound_;
  std::vector<Expectation> expected_;
};

// Runs the standard single-writer workload (lin::run_sim_workload
// process layout: writers are procs [0,C), readers [C,C+R)) under
// `base` wrapped in a FaultInjectingPolicy executing `plan`.
lin::History run_sim_workload_with_faults(core::Snapshot<std::uint64_t>& snap,
                                          sched::SchedulePolicy& base,
                                          const lin::WorkloadConfig& cfg,
                                          const FaultPlan& plan);

struct CrashSweepConfig {
  // Fresh shared state / fresh deterministic base policy per run.
  std::function<std::unique_ptr<core::Snapshot<std::uint64_t>>()>
      make_snapshot;
  std::function<std::unique_ptr<sched::SchedulePolicy>()> make_policy;
  lin::WorkloadConfig workload;
  // Per-operation base-op bounds for certification; 0 skips the
  // wait-freedom check (safety only).
  std::uint64_t read_bound = 0;
  std::uint64_t write_bound = 0;
  // Also demand an explicit linearization witness per faulty history.
  bool check_witness = false;
  // Safety valve on the sweep size.
  std::uint64_t max_runs = 100000;
};

struct SweepFailure {
  FaultPlan plan;
  std::string reason;
  lin::History history;
};

struct CrashSweepResult {
  std::uint64_t runs = 0;  // faulty executions performed
  std::vector<std::uint64_t> baseline_points;  // fault-free points/proc
  bool exhausted = true;   // false if max_runs stopped the sweep
  // Base-op cost range of the Reads completed across the faulty runs
  // (both 0 if none completed).
  std::uint64_t read_cost_min = 0;
  std::uint64_t read_cost_max = 0;
  std::vector<SweepFailure> failures;

  bool ok() const { return failures.empty(); }
};

CrashSweepResult crash_sweep(const CrashSweepConfig& cfg);

}  // namespace compreg::fault
