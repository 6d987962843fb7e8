#include "fault/chaos.h"

#include <algorithm>
#include <sstream>

#include "fault/fault_policy.h"
#include "lin/witness.h"
#include "sched/sim_scheduler.h"
#include "util/assert.h"

namespace compreg::fault {
namespace {

lin::CheckResult certify_fail(std::string msg) {
  return lin::CheckResult{false, std::move(msg)};
}

}  // namespace

// NOLINTNEXTLINE(bugprone-easily-swappable-parameters): paper tuple
void WaitFreedomCertifier::expect_writer(int proc, int component,
                                         int writes) {
  expected_.push_back(Expectation{proc, component, writes});
}

void WaitFreedomCertifier::expect_reader(int proc, int reads) {
  expected_.push_back(Expectation{proc, -1, reads});
}

lin::CheckResult WaitFreedomCertifier::certify(const lin::History& h,
                                               const FaultPlan& plan) const {
  // Bound check: every completed operation, by anyone — a process that
  // crashes later still ran its earlier ops wait-free.
  for (const lin::WriteRec& w : h.writes) {
    if (w.end == lin::kPendingEnd || w.cost == 0) continue;
    if (write_bound_ != 0 && w.cost > write_bound_) {
      std::ostringstream os;
      os << "wait-freedom: Write by process " << w.proc << " cost " << w.cost
         << " base ops, bound is " << write_bound_;
      return certify_fail(os.str());
    }
  }
  for (const lin::ReadRec& r : h.reads) {
    if (r.end == lin::kPendingEnd || r.cost == 0) continue;
    if (read_bound_ != 0 && r.cost > read_bound_) {
      std::ostringstream os;
      os << "wait-freedom: Read by process " << r.proc << " cost " << r.cost
         << " base ops, bound is " << read_bound_;
      return certify_fail(os.str());
    }
  }

  // Completion check: survivors finish their whole program.
  const std::vector<int> doomed = plan.doomed();
  for (const Expectation& e : expected_) {
    if (std::binary_search(doomed.begin(), doomed.end(), e.proc)) continue;
    int completed = 0;
    if (e.component >= 0) {
      for (const lin::WriteRec& w : h.writes) {
        if (w.proc == e.proc && w.end != lin::kPendingEnd) ++completed;
      }
    } else {
      for (const lin::ReadRec& r : h.reads) {
        if (r.proc == e.proc && r.end != lin::kPendingEnd) ++completed;
      }
    }
    if (completed != e.ops) {
      std::ostringstream os;
      os << "wait-freedom: surviving process " << e.proc << " completed "
         << completed << " of " << e.ops
         << (e.component >= 0 ? " Writes" : " Reads")
         << " (plan " << plan.to_string() << ")";
      return certify_fail(os.str());
    }
  }
  return lin::CheckResult{};
}

lin::History run_sim_workload_with_faults(core::Snapshot<std::uint64_t>& snap,
                                          sched::SchedulePolicy& base,
                                          const lin::WorkloadConfig& cfg,
                                          const FaultPlan& plan) {
  FaultInjectingPolicy policy(base, plan);
  return lin::run_sim_workload(
      snap, policy, cfg,
      [&policy](sched::SimScheduler& sim) { policy.attach(sim); });
}

CrashSweepResult crash_sweep(const CrashSweepConfig& cfg) {
  COMPREG_CHECK(static_cast<bool>(cfg.make_snapshot));
  COMPREG_CHECK(static_cast<bool>(cfg.make_policy));
  CrashSweepResult result;

  // Fault-free baseline: learn how many schedule points each process
  // takes, which bounds the reachable crash points. An empty-plan
  // FaultInjectingPolicy is the counter — its per-process grant counts
  // outlive the run (the scheduler itself does not).
  int components = 0;
  int readers = 0;
  {
    auto snap = cfg.make_snapshot();
    components = snap->components();
    readers = snap->readers();
    auto policy = cfg.make_policy();
    FaultInjectingPolicy counter(*policy, FaultPlan{});
    (void)lin::run_sim_workload(*snap, counter, cfg.workload);
    result.baseline_points.resize(
        static_cast<std::size_t>(components + readers));
    for (int p = 0; p < components + readers; ++p) {
      result.baseline_points[static_cast<std::size_t>(p)] =
          counter.points_granted(p);
    }
  }

  WaitFreedomCertifier certifier(cfg.read_bound, cfg.write_bound);
  for (int k = 0; k < components; ++k) {
    certifier.expect_writer(k, k, cfg.workload.writes_per_writer);
  }
  for (int j = 0; j < readers; ++j) {
    certifier.expect_reader(components + j, cfg.workload.scans_per_reader);
  }

  // The sweep proper: one run per (process, reachable point).
  for (int victim = 0; victim < components + readers; ++victim) {
    const std::uint64_t points =
        result.baseline_points[static_cast<std::size_t>(victim)];
    for (std::uint64_t n = 0; n < points; ++n) {
      if (result.runs >= cfg.max_runs) {
        result.exhausted = false;
        return result;
      }
      FaultPlan plan;
      plan.crashes.push_back(CrashSpec{victim, n});
      auto snap = cfg.make_snapshot();
      auto base = cfg.make_policy();
      const lin::History h =
          run_sim_workload_with_faults(*snap, *base, cfg.workload, plan);
      ++result.runs;
      for (const lin::ReadRec& r : h.reads) {
        if (r.end == lin::kPendingEnd) continue;
        const bool first = result.read_cost_max == 0;
        result.read_cost_min =
            first ? r.cost : std::min(result.read_cost_min, r.cost);
        result.read_cost_max = std::max(result.read_cost_max, r.cost);
      }

      const lin::CheckResult sl = lin::check_shrinking_lemma(h);
      if (!sl.ok) {
        result.failures.push_back(
            SweepFailure{plan, "shrinking: " + sl.violation, h});
        continue;
      }
      if (cfg.read_bound != 0 || cfg.write_bound != 0) {
        const lin::CheckResult wf = certifier.certify(h, plan);
        if (!wf.ok) {
          result.failures.push_back(SweepFailure{plan, wf.violation, h});
          continue;
        }
      }
      if (cfg.check_witness) {
        const lin::Witness w = lin::build_linearization(h);
        if (!w.ok) {
          result.failures.push_back(
              SweepFailure{plan, "witness: " + w.error, h});
        }
      }
    }
  }
  return result;
}

}  // namespace compreg::fault
