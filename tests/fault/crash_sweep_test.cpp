// Exhaustive crash-point sweep over a small composite register
// (ISSUE acceptance scenario): 3 processes on a C=2, R=1 Anderson
// construction, every single-crash plan at every reachable schedule
// point. Every faulty history must satisfy the Shrinking Lemma, admit
// an explicit linearization witness, and leave the survivors wait-free
// within the paper's TR/TW base-operation bounds.
#include <gtest/gtest.h>

#include <memory>

#include "core/composite_register.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "fault/fault_policy.h"
#include "lin/shrinking_checker.h"
#include "lin/workload.h"
#include "sched/policy.h"

namespace compreg::fault {
namespace {

using Reg = core::CompositeRegister<std::uint64_t>;

CrashSweepConfig small_anderson_config() {
  CrashSweepConfig cfg;
  cfg.make_snapshot = [] {
    return std::make_unique<Reg>(2, 1, 0);
  };
  cfg.workload.writes_per_writer = 2;
  cfg.workload.scans_per_reader = 2;
  cfg.read_bound = Reg::read_cost(2, 1);
  cfg.write_bound = Reg::write_cost(2, 1);
  cfg.check_witness = true;
  return cfg;
}

TEST(CrashSweepTest, AndersonRoundRobinEveryCrashPointLinearizes) {
  CrashSweepConfig cfg = small_anderson_config();
  cfg.make_policy = [] {
    return std::make_unique<sched::RoundRobinPolicy>();
  };
  const CrashSweepResult result = crash_sweep(cfg);

  // Sweep covered one run per (process, reachable point) and finished.
  ASSERT_EQ(result.baseline_points.size(), 3u);
  std::uint64_t expected_runs = 0;
  for (std::uint64_t p : result.baseline_points) {
    EXPECT_GT(p, 0u);
    expected_runs += p;
  }
  EXPECT_EQ(result.runs, expected_runs);
  EXPECT_TRUE(result.exhausted);

  // E12's claim is exact, not just a bound: every completed Read costs
  // TR(2,1) = 7 base ops wherever the crash lands.
  EXPECT_EQ(Reg::read_cost(2, 1), 7u);
  EXPECT_EQ(result.read_cost_min, Reg::read_cost(2, 1));
  EXPECT_EQ(result.read_cost_max, Reg::read_cost(2, 1));

  for (const SweepFailure& f : result.failures) {
    ADD_FAILURE() << "plan " << f.plan.to_string() << ": " << f.reason;
  }
  EXPECT_TRUE(result.ok());
}

TEST(CrashSweepTest, AndersonRandomScheduleEveryCrashPointLinearizes) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CrashSweepConfig cfg = small_anderson_config();
    cfg.make_policy = [seed] {
      return std::make_unique<sched::RandomPolicy>(seed);
    };
    const CrashSweepResult result = crash_sweep(cfg);
    EXPECT_TRUE(result.exhausted) << "seed " << seed;
    EXPECT_GT(result.runs, 0u) << "seed " << seed;
    EXPECT_EQ(result.read_cost_min, Reg::read_cost(2, 1)) << "seed " << seed;
    EXPECT_EQ(result.read_cost_max, Reg::read_cost(2, 1)) << "seed " << seed;
    for (const SweepFailure& f : result.failures) {
      ADD_FAILURE() << "seed " << seed << " plan " << f.plan.to_string()
                    << ": " << f.reason;
    }
  }
}

TEST(CrashSweepTest, MaxRunsStopsSweepEarly) {
  CrashSweepConfig cfg = small_anderson_config();
  cfg.check_witness = false;
  cfg.make_policy = [] {
    return std::make_unique<sched::RoundRobinPolicy>();
  };
  cfg.max_runs = 3;
  const CrashSweepResult result = crash_sweep(cfg);
  EXPECT_EQ(result.runs, 3u);
  EXPECT_FALSE(result.exhausted);
  EXPECT_TRUE(result.ok());
}

// The certifier must actually bite: feed it an impossible bound and
// check the sweep reports wait-freedom violations.
TEST(CrashSweepTest, CertifierRejectsImpossiblyTightBound) {
  CrashSweepConfig cfg = small_anderson_config();
  cfg.check_witness = false;
  cfg.make_policy = [] {
    return std::make_unique<sched::RoundRobinPolicy>();
  };
  cfg.read_bound = 1;  // a C=2 scan costs TR(2,1) = 7 base ops
  cfg.max_runs = 5;
  const CrashSweepResult result = crash_sweep(cfg);
  EXPECT_FALSE(result.ok());
}

// Stalling the reader for a long window must not break anyone:
// writers are wait-free (they never wait for the reader), and the
// stalled reader still finishes once the window passes.
TEST(CrashSweepTest, StallPlanPreservesCompletionAndBounds) {
  Reg reg(2, 1, 0);
  sched::RoundRobinPolicy base;
  lin::WorkloadConfig wl;
  wl.writes_per_writer = 2;
  wl.scans_per_reader = 2;
  FaultPlan plan;
  plan.stalls.push_back(StallSpec{2, 0, 40});
  const lin::History h = run_sim_workload_with_faults(reg, base, wl, plan);

  EXPECT_TRUE(lin::check_shrinking_lemma(h).ok);
  WaitFreedomCertifier cert(Reg::read_cost(2, 1), Reg::write_cost(2, 1));
  cert.expect_writer(0, 0, 2);
  cert.expect_writer(1, 1, 2);
  cert.expect_reader(2, 2);
  const lin::CheckResult wf = cert.certify(h, plan);
  EXPECT_TRUE(wf.ok) << wf.violation;
}

}  // namespace
}  // namespace compreg::fault
