// FaultPlan grammar: parse/to_string round-trips, rejection of junk,
// and determinism of random plan generation.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace compreg::fault {
namespace {

TEST(FaultPlanTest, ParsesSingleCrash) {
  auto plan = FaultPlan::parse("crash:0@4");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_EQ(plan->crashes[0].proc, 0);
  EXPECT_EQ(plan->crashes[0].after_points, 4u);
  EXPECT_TRUE(plan->stalls.empty());
  EXPECT_TRUE(plan->hangs.empty());
}

TEST(FaultPlanTest, ParsesMixedSpecs) {
  auto plan = FaultPlan::parse("crash:0@4,stall:2@10+32,hang:1@0");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->crashes.size(), 1u);
  ASSERT_EQ(plan->stalls.size(), 1u);
  ASSERT_EQ(plan->hangs.size(), 1u);
  EXPECT_EQ(plan->stalls[0].proc, 2);
  EXPECT_EQ(plan->stalls[0].at_step, 10u);
  EXPECT_EQ(plan->stalls[0].duration, 32u);
  EXPECT_EQ(plan->hangs[0].proc, 1);
  EXPECT_EQ(plan->hangs[0].after_points, 0u);
}

TEST(FaultPlanTest, RoundTripsThroughText) {
  const char* texts[] = {
      "crash:0@4",
      "crash:0@4,crash:1@7",
      "crash:2@0,stall:0@3+9",
      "hang:1@12",
      "crash:0@1,stall:1@2+3,hang:2@4",
  };
  for (const char* text : texts) {
    auto plan = FaultPlan::parse(text);
    ASSERT_TRUE(plan.has_value()) << text;
    EXPECT_EQ(plan->to_string(), text);
    auto again = FaultPlan::parse(plan->to_string());
    ASSERT_TRUE(again.has_value()) << text;
    EXPECT_EQ(again->to_string(), plan->to_string());
  }
}

TEST(FaultPlanTest, RejectsJunk) {
  const char* junk[] = {
      "",
      "crash",
      "crash:",
      "crash:0",
      "crash:0@",
      "crash:x@4",
      "crash:0@4x",
      "crash:0@4,",
      "stall:0@4",        // stall needs +duration
      "stall:0@4+",
      "crash:0@4+5",      // crash takes no duration
      "hang:0@4+5",
      "explode:0@4",
      "crash 0@4",
      "crash:-1@4",
      "crash:0@-1",       // would wrap to 2^64-1: never fires
      "crash:0@+4",
      "crash: 0@4",
      "stall:0@4+-1",
  };
  for (const char* text : junk) {
    EXPECT_FALSE(FaultPlan::parse(text).has_value()) << "'" << text << "'";
  }
}

TEST(FaultPlanTest, DoomedIsSortedUniqueCrashAndHangProcs) {
  auto plan = FaultPlan::parse("crash:2@1,hang:0@3,crash:2@5,crash:1@0");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->doomed(), (std::vector<int>{0, 1, 2}));
  FaultPlan empty;
  EXPECT_TRUE(empty.doomed().empty());
  EXPECT_TRUE(empty.empty());
}

TEST(FaultPlanTest, RandomIsDeterministicInSeed) {
  Rng a(42), b(42), c(43);
  const FaultPlan pa = FaultPlan::random(a, 5, 64, 500, 300);
  const FaultPlan pb = FaultPlan::random(b, 5, 64, 500, 300);
  const FaultPlan pc = FaultPlan::random(c, 5, 64, 500, 300);
  EXPECT_EQ(pa.to_string(), pb.to_string());
  // Not a hard guarantee for every pair of seeds, but these two differ.
  EXPECT_NE(pa.to_string(), pc.to_string());
}

TEST(FaultPlanTest, RandomRespectsBounds) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const FaultPlan p = FaultPlan::random(rng, 4, 32, 400, 400);
    for (const CrashSpec& cs : p.crashes) {
      EXPECT_GE(cs.proc, 0);
      EXPECT_LT(cs.proc, 4);
      EXPECT_LT(cs.after_points, 32u);
    }
    for (const StallSpec& ss : p.stalls) {
      EXPECT_GE(ss.proc, 0);
      EXPECT_LT(ss.proc, 4);
      EXPECT_GE(ss.duration, 1u);
    }
    EXPECT_TRUE(p.hangs.empty());  // random() never hangs a run
  }
}

}  // namespace
}  // namespace compreg::fault
