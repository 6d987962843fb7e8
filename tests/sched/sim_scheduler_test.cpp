#include "sched/sim_scheduler.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "registers/word_register.h"
#include "sched/policy.h"

namespace compreg::sched {
namespace {

// Each policy grant after the arrival phase corresponds to exactly one
// shared-register access.
TEST(SimSchedulerTest, OneGrantPerSharedAccess) {
  RoundRobinPolicy policy;
  SimScheduler sim(policy);
  registers::WordRegister<int> reg(0);
  sim.spawn([&] {
    reg.write(1);
    reg.write(2);
    reg.write(3);
  });
  sim.run();
  EXPECT_EQ(sim.steps(), 3u);
  EXPECT_EQ(sim.trace(), (std::vector<int>{0, 0, 0}));
}

// run() pins every process thread to the CPU the caller was on, and
// gives the caller its own mask back when it returns.
TEST(SimSchedulerTest, RunPinsItsProcessesToOneCpuAndRestoresTheCaller) {
  const std::vector<int> before = allowed_cpus();
  ASSERT_FALSE(before.empty());
  RoundRobinPolicy policy;
  SimScheduler sim(policy);
  registers::WordRegister<int> reg(0);
  std::vector<std::vector<int>> seen(2);
  for (int p = 0; p < 2; ++p) {
    sim.spawn([&, p] {
      reg.write(p);
      seen[static_cast<std::size_t>(p)] = allowed_cpus();
    });
  }
  sim.run();
  ASSERT_EQ(seen[0].size(), 1u);
  EXPECT_EQ(seen[1], seen[0]) << "processes pinned to different CPUs";
  EXPECT_EQ(allowed_cpus(), before) << "caller's mask not restored";
}

TEST(SimSchedulerTest, CpuPinOfANegativeCpuLeavesTheMaskAlone) {
  const std::vector<int> before = allowed_cpus();
  {
    const CpuPin pin(-1);
    EXPECT_EQ(allowed_cpus(), before);
  }
  EXPECT_EQ(allowed_cpus(), before);
}

TEST(SimSchedulerTest, ProcessWithNoSharedAccessCompletes) {
  RoundRobinPolicy policy;
  SimScheduler sim(policy);
  int side_effect = 0;
  sim.spawn([&] { side_effect = 42; });
  sim.run();
  EXPECT_EQ(side_effect, 42);
  EXPECT_EQ(sim.steps(), 0u);
}

TEST(SimSchedulerTest, RoundRobinAlternates) {
  RoundRobinPolicy policy;
  SimScheduler sim(policy);
  registers::WordRegister<int> reg(0);
  sim.spawn([&] {
    reg.write(1);
    reg.write(2);
  });
  sim.spawn([&] {
    reg.write(3);
    reg.write(4);
  });
  sim.run();
  EXPECT_EQ(sim.trace(), (std::vector<int>{0, 1, 0, 1}));
}

TEST(SimSchedulerTest, ExecutionIsSerialized) {
  // Under lockstep, a non-atomic shared counter is race-free: every
  // increment happens while exactly one process runs.
  RandomPolicy policy(123);
  SimScheduler sim(policy);
  registers::WordRegister<int> reg(0);
  long plain_counter = 0;
  for (int p = 0; p < 4; ++p) {
    sim.spawn([&] {
      for (int i = 0; i < 50; ++i) {
        reg.write(1);        // schedule point
        plain_counter += 1;  // runs exclusively between points
      }
    });
  }
  sim.run();
  EXPECT_EQ(plain_counter, 200);
  EXPECT_EQ(sim.steps(), 200u);
}

TEST(SimSchedulerTest, SameSeedSameTrace) {
  auto run_once = [](std::uint64_t seed) {
    RandomPolicy policy(seed);
    SimScheduler sim(policy);
    registers::WordRegister<int> reg(0);
    for (int p = 0; p < 3; ++p) {
      sim.spawn([&] {
        for (int i = 0; i < 20; ++i) reg.write(i);
      });
    }
    sim.run();
    return sim.trace();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimSchedulerTest, ScriptedScheduleIsFollowed) {
  ScriptPolicy policy({1, 1, 0, 1, 0, 0});
  SimScheduler sim(policy);
  registers::WordRegister<int> reg(0);
  std::vector<int> order;
  sim.spawn([&] {
    for (int i = 0; i < 3; ++i) {
      reg.write(i);
      order.push_back(0);
    }
  });
  sim.spawn([&] {
    for (int i = 0; i < 3; ++i) {
      reg.write(i);
      order.push_back(1);
    }
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 0, 1, 0, 0}));
}

// A body that lets a non-ProcessParked exception escape must not wedge
// or kill the lockstep: every other process finishes, and run()
// rethrows the failure with the offender's id and schedule position.
TEST(SimSchedulerTest, BodyExceptionIsReportedFromRun) {
  RoundRobinPolicy policy;
  SimScheduler sim(policy);
  registers::WordRegister<int> reg(0);
  int survivor_writes = 0;
  sim.spawn([&] {
    reg.write(1);
    reg.write(2);
    throw std::runtime_error("boom in body");
  });
  sim.spawn([&] {
    for (int i = 0; i < 4; ++i) {
      reg.write(i);
      ++survivor_writes;
    }
  });
  try {
    sim.run();
    FAIL() << "run() should have thrown ProcessBodyError";
  } catch (const ProcessBodyError& e) {
    EXPECT_EQ(e.proc_id, 0);
    EXPECT_NE(std::string(e.what()).find("process 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("boom in body"), std::string::npos);
    EXPECT_LE(e.trace_position, sim.steps());
    ASSERT_TRUE(e.original != nullptr);
    EXPECT_THROW(std::rethrow_exception(e.original), std::runtime_error);
  }
  EXPECT_EQ(survivor_writes, 4);  // the survivor was not collateral damage
}

TEST(SimSchedulerTest, ParkedProcessIsNotAnError) {
  RoundRobinPolicy policy;
  SimScheduler sim(policy);
  registers::WordRegister<int> reg(0);
  sim.spawn([&] {
    park_after(1);
    reg.write(1);
    reg.write(2);  // never reached
  });
  sim.spawn([&] { reg.write(3); });
  EXPECT_NO_THROW(sim.run());
}

// Scheduler-side crash injection: the granted access never executes,
// exactly like park_after at the same point.
TEST(SimSchedulerTest, InjectedCrashStopsProcessAtNextGrant) {
  RoundRobinPolicy policy;
  SimScheduler sim(policy);
  registers::WordRegister<int> reg(0);
  int victim_completed = 0;
  sim.spawn([&] {
    for (int i = 0; i < 5; ++i) {
      reg.write(i);
      ++victim_completed;
    }
  });
  sim.inject_crash_on_next_grant(0);
  sim.run();
  EXPECT_EQ(victim_completed, 0);
  EXPECT_EQ(sim.steps(), 1u);  // the grant happened; the access did not
}

}  // namespace
}  // namespace compreg::sched
