#include "sched/dpor.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "fault/fault_plan.h"
#include "sched/schedule_point.h"

namespace compreg::sched {
namespace {

// Two processes taking `steps` labeled points each on DISJOINT cells:
// every pair of cross-process steps commutes, so one schedule covers
// the whole space (the naive enumerator would run C(2*steps, steps)).
// One worker per CPU at most: each worker pins itself to its own.
TEST(DporTest, WorkersAreCappedAtTheAllowedCpus) {
  const int cpus = static_cast<int>(allowed_cpus().size());
  ASSERT_GE(cpus, 1);
  EXPECT_EQ(dpor_workers(1), 1);
  EXPECT_EQ(dpor_workers(cpus), cpus);
  EXPECT_EQ(dpor_workers(cpus + 7), cpus);
}

TEST(DporTest, DisjointCellsCollapseToOneSchedule) {
  DporScenario scenario = [](SimScheduler& sim) {
    auto a = std::make_shared<AccessLabel>("dpor.a", Discipline::kSwmr, 1);
    auto b = std::make_shared<AccessLabel>("dpor.b", Discipline::kSwmr, 1);
    sim.spawn([a] {
      for (int i = 0; i < 3; ++i) point(a->write());
    });
    sim.spawn([b] {
      for (int i = 0; i < 3; ++i) point(b->write());
    });
    return [a, b] { return true; };
  };
  const DporResult r = explore_dpor(scenario);
  EXPECT_EQ(r.stats.schedules, 1u);
  EXPECT_TRUE(r.certified());
}

// Two single-write processes on the SAME cell: exactly the two orders
// are inequivalent, and DPOR must visit both.
TEST(DporTest, ConflictingWritesExploreBothOrders) {
  std::set<std::vector<int>> traces;
  DporScenario scenario = [&](SimScheduler& sim) {
    auto cell =
        std::make_shared<AccessLabel>("dpor.cell", Discipline::kMrmw, 2);
    sim.spawn([cell] { point(cell->write()); });
    sim.spawn([cell] { point(cell->write()); });
    return [&traces, &sim, cell] {
      traces.insert(sim.trace());
      return true;
    };
  };
  const DporResult r = explore_dpor(scenario);
  EXPECT_EQ(r.stats.schedules, 2u);
  EXPECT_EQ(traces.size(), 2u);
  EXPECT_TRUE(r.certified());
}

// Read-read on one cell commutes by default and is explored once; the
// conservative option forces both orders.
TEST(DporTest, ConservativeReadsDoubleTheSpace) {
  DporScenario scenario = [](SimScheduler& sim) {
    auto cell =
        std::make_shared<AccessLabel>("dpor.cell", Discipline::kSwmr, 2);
    sim.spawn([cell] { point(cell->read(0)); });
    sim.spawn([cell] { point(cell->read(1)); });
    return [cell] { return true; };
  };
  EXPECT_EQ(explore_dpor(scenario).stats.schedules, 1u);
  DporOptions opts;
  opts.dependency.conservative_reads = true;
  EXPECT_EQ(explore_dpor(scenario, opts).stats.schedules, 2u);
}

// Bare (unlabeled) points are opaque, hence universally dependent: the
// full interleaving space is explored, matching the naive count.
TEST(DporTest, OpaquePointsForceFullEnumeration) {
  DporScenario scenario = [](SimScheduler& sim) {
    sim.spawn([] {
      point();
      point();
    });
    sim.spawn([] {
      point();
      point();
    });
    return [] { return true; };
  };
  const DporResult r = explore_dpor(scenario);
  EXPECT_EQ(r.stats.schedules, 6u);  // C(4,2)
  EXPECT_TRUE(r.certified());
}

// A failing verifier stops exploration, reports the execution's trace,
// and the result is not a certification.
TEST(DporTest, ViolationStopsExplorationWithWitnessSchedule) {
  DporScenario scenario = [](SimScheduler& sim) {
    auto cell =
        std::make_shared<AccessLabel>("dpor.cell", Discipline::kMrmw, 2);
    auto last = std::make_shared<int>(-1);
    sim.spawn([cell, last] {
      point(cell->write());
      *last = 0;
    });
    sim.spawn([cell, last] {
      point(cell->write());
      *last = 1;
    });
    // "Bug": an execution where proc 1 wrote last.
    return [cell, last] { return *last != 1; };
  };
  const DporResult r = explore_dpor(scenario);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.certified());
  EXPECT_FALSE(r.violation_schedule.empty());
  // The witness is replayable: its last actor is proc 1.
  EXPECT_EQ(r.violation_schedule.back(), 1);
}

TEST(DporTest, MaxSchedulesTruncatesAndClearsExhausted) {
  DporScenario scenario = [](SimScheduler& sim) {
    for (int p = 0; p < 3; ++p) {
      sim.spawn([] {
        point();
        point();
      });
    }
    return [] { return true; };
  };
  DporOptions opts;
  opts.max_schedules = 3;
  const DporResult r = explore_dpor(scenario, opts);
  EXPECT_EQ(r.stats.schedules, 3u);
  EXPECT_FALSE(r.stats.exhausted);
  EXPECT_FALSE(r.certified());
}

TEST(DporTest, DepthBoundFlagsBoundedExploration) {
  DporScenario scenario = [](SimScheduler& sim) {
    for (int p = 0; p < 2; ++p) {
      sim.spawn([] {
        for (int i = 0; i < 3; ++i) point();
      });
    }
    return [] { return true; };
  };
  DporOptions opts;
  opts.depth_bound = 3;  // races past trace position 3 are ignored
  const DporResult r = explore_dpor(scenario, opts);
  EXPECT_TRUE(r.stats.depth_limited);
  EXPECT_FALSE(r.certified());
  // Strictly fewer schedules than the unbounded C(6,3) = 20, but the
  // races inside the bound are still reversed.
  EXPECT_LT(r.stats.schedules, 20u);
  EXPECT_GE(r.stats.schedules, 2u);
}

// Sleep sets only prune re-exploration; the set of inequivalent
// schedules visited must not change.
TEST(DporTest, SleepSetsPreserveTheExploredSet) {
  auto run = [&](bool sleep) {
    std::set<std::vector<int>> traces;
    DporScenario scenario = [&](SimScheduler& sim) {
      auto a = std::make_shared<AccessLabel>("dpor.a", Discipline::kMrmw, 2);
      auto b = std::make_shared<AccessLabel>("dpor.b", Discipline::kMrmw, 2);
      sim.spawn([a, b] {
        point(a->write());
        point(b->write());
      });
      sim.spawn([a, b] {
        point(b->write());
        point(a->write());
      });
      return [&traces, &sim, a, b] {
        traces.insert(sim.trace());
        return true;
      };
    };
    DporOptions opts;
    opts.sleep_sets = sleep;
    const DporResult r = explore_dpor(scenario, opts);
    EXPECT_TRUE(r.certified());
    return traces;
  };
  EXPECT_EQ(run(true), run(false));
}

// A fixed crash plan applies identically to every schedule and the
// whole exploration stays deterministic.
TEST(DporTest, CrashPlanIsDeterministicAcrossExploration) {
  auto run = [] {
    std::set<std::vector<int>> traces;
    DporScenario scenario = [&](SimScheduler& sim) {
      auto cell =
          std::make_shared<AccessLabel>("dpor.cell", Discipline::kMrmw, 2);
      sim.spawn([cell] {
        point(cell->write());
        point(cell->write());
      });
      sim.spawn([cell] {
        point(cell->write());
        point(cell->write());
      });
      return [&traces, &sim, cell] {
        traces.insert(sim.trace());
        return true;
      };
    };
    DporOptions opts;
    const auto plan = fault::FaultPlan::parse("crash:0@2");
    EXPECT_TRUE(plan.has_value());
    opts.plan = *plan;
    const DporResult r = explore_dpor(scenario, opts);
    EXPECT_TRUE(r.certified());
    return traces;
  };
  const auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_FALSE(first.empty());
}

TEST(DporTest, OnExecutionReportsEveryRun) {
  std::uint64_t calls = 0;
  DporScenario scenario = [](SimScheduler& sim) {
    sim.spawn([] { point(); });
    sim.spawn([] { point(); });
    return [] { return true; };
  };
  DporOptions opts;
  opts.on_execution = [&](const std::vector<int>&, std::uint64_t done) {
    EXPECT_EQ(done, calls);
    ++calls;
  };
  const DporResult r = explore_dpor(scenario, opts);
  EXPECT_EQ(calls, r.stats.schedules);
  EXPECT_EQ(r.stats.schedules, 2u);
}

}  // namespace
}  // namespace compreg::sched
