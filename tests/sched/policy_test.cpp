#include "sched/policy.h"

#include <gtest/gtest.h>

#include <map>

namespace compreg::sched {
namespace {

TEST(RandomPolicyTest, PicksOnlyRunnable) {
  RandomPolicy policy(5);
  const std::vector<int> runnable{2, 5, 9};
  for (int i = 0; i < 200; ++i) {
    const int pick = policy.pick(runnable);
    EXPECT_TRUE(pick == 2 || pick == 5 || pick == 9);
  }
}

TEST(RandomPolicyTest, RoughlyUniform) {
  RandomPolicy policy(6);
  const std::vector<int> runnable{0, 1, 2, 3};
  std::map<int, int> counts;
  for (int i = 0; i < 8000; ++i) counts[policy.pick(runnable)]++;
  for (int id : runnable) {
    EXPECT_NEAR(counts[id] / 8000.0, 0.25, 0.05);
  }
}

TEST(RoundRobinPolicyTest, CyclesInIdOrder) {
  RoundRobinPolicy policy;
  const std::vector<int> runnable{0, 1, 2};
  EXPECT_EQ(policy.pick(runnable), 0);
  EXPECT_EQ(policy.pick(runnable), 1);
  EXPECT_EQ(policy.pick(runnable), 2);
  EXPECT_EQ(policy.pick(runnable), 0);
}

TEST(RoundRobinPolicyTest, SkipsFinishedProcs) {
  RoundRobinPolicy policy;
  EXPECT_EQ(policy.pick({0, 1, 2}), 0);
  EXPECT_EQ(policy.pick({0, 2}), 2);  // 1 finished: next id above 0 is 2
  EXPECT_EQ(policy.pick({0, 2}), 0);
}

TEST(ScriptPolicyTest, FollowsScriptThenFallsBack) {
  ScriptPolicy policy({2, 0});
  EXPECT_EQ(policy.pick({0, 1, 2}), 2);
  EXPECT_EQ(policy.pick({0, 1, 2}), 0);
  EXPECT_EQ(policy.position(), 2u);
  // Script exhausted: round-robin fallback.
  EXPECT_EQ(policy.pick({0, 1, 2}), 0);
  EXPECT_EQ(policy.pick({0, 1, 2}), 1);
}

TEST(RationPolicyTest, VictimGetsOnePickPerPeriodWhileOthersRun) {
  RationPolicy policy(/*victim=*/1, /*period=*/4);
  const std::vector<int> runnable{0, 1, 2};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) EXPECT_EQ(policy.pick(runnable), 0);
    EXPECT_EQ(policy.pick(runnable), 1);
  }
}

TEST(RationPolicyTest, VictimRunsEveryStepWhenAlone) {
  RationPolicy policy(/*victim=*/2, /*period=*/8);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(policy.pick({2}), 2);
  // Rationing resumes, on the same step count, once others are back.
  std::vector<int> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(policy.pick({0, 2}));
  EXPECT_EQ(picks, (std::vector<int>{0, 0, 0, 2, 0, 0, 0, 0}));
}

TEST(PctPolicyTest, DeterministicAndValid) {
  PctPolicy a(99, 3, 2, 100);
  PctPolicy b(99, 3, 2, 100);
  const std::vector<int> runnable{0, 1, 2};
  for (int i = 0; i < 100; ++i) {
    const int pa = a.pick(runnable);
    EXPECT_EQ(pa, b.pick(runnable));
    EXPECT_TRUE(pa >= 0 && pa <= 2);
  }
}

TEST(PctPolicyTest, HighestPriorityRunsUntilDemoted) {
  // With depth 0 there are no demotions, so the same process runs
  // whenever runnable.
  PctPolicy policy(4, 3, 0, 100);
  const std::vector<int> runnable{0, 1, 2};
  const int first = policy.pick(runnable);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(policy.pick(runnable), first);
}

TEST(ReplayIndexPolicyTest, ReplaysPrefixThenZero) {
  ReplayIndexPolicy policy({1, 2});
  EXPECT_EQ(policy.pick({10, 20, 30}), 20);  // index 1
  EXPECT_EQ(policy.pick({10, 20, 30}), 30);  // index 2
  EXPECT_EQ(policy.pick({10, 20, 30}), 10);  // beyond prefix: index 0
  EXPECT_EQ(policy.branching(), (std::vector<std::uint32_t>{3, 3, 3}));
}

}  // namespace
}  // namespace compreg::sched
