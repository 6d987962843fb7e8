// NetFaultPlan grammar: parse/to_string round-trip, rejection of junk,
// and determinism of the random chaos-plan generator.
#include "net/net_plan.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace compreg::net {
namespace {

TEST(NetPlanTest, EmptyPlan) {
  NetFaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.to_string(), "");
}

TEST(NetPlanTest, ParseSingleSpecs) {
  auto drop = NetFaultPlan::parse("drop:100");
  ASSERT_TRUE(drop.has_value());
  EXPECT_EQ(drop->drop_permille, 100u);
  EXPECT_FALSE(drop->empty());

  auto delay = NetFaultPlan::parse("delay:200+6");
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(delay->delay.permille, 200u);
  EXPECT_EQ(delay->delay.max_steps, 6u);

  auto dup = NetFaultPlan::parse("dup:60");
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->dup_permille, 60u);

  auto reorder = NetFaultPlan::parse("reorder:120");
  ASSERT_TRUE(reorder.has_value());
  EXPECT_EQ(reorder->reorder_permille, 120u);

  auto part = NetFaultPlan::parse("partition:40+200@0.2");
  ASSERT_TRUE(part.has_value());
  ASSERT_EQ(part->partitions.size(), 1u);
  EXPECT_EQ(part->partitions[0].at_step, 40u);
  EXPECT_EQ(part->partitions[0].duration, 200u);
  EXPECT_EQ(part->partitions[0].group, (std::vector<int>{0, 2}));

  auto crash = NetFaultPlan::parse("crash:2@25");
  ASSERT_TRUE(crash.has_value());
  ASSERT_EQ(crash->crashes.size(), 1u);
  EXPECT_EQ(crash->crashes[0].node, 2);
  EXPECT_EQ(crash->crashes[0].after_msgs, 25u);

  auto recover = NetFaultPlan::parse("recover:1@12+40");
  ASSERT_TRUE(recover.has_value());
  ASSERT_EQ(recover->recoveries.size(), 1u);
  EXPECT_EQ(recover->recoveries[0].node, 1);
  EXPECT_EQ(recover->recoveries[0].after_msgs, 12u);
  EXPECT_EQ(recover->recoveries[0].downtime, 40u);
  EXPECT_FALSE(recover->empty());
}

TEST(NetPlanTest, RoundTrip) {
  const std::string text =
      "drop:100,delay:200+6,dup:60,reorder:120,"
      "partition:40+200@0.1,crash:2@25,recover:0@12+40,recover:0@3+9";
  auto plan = NetFaultPlan::parse(text);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->to_string(), text);
  // Round-tripping the round-trip is a fixed point.
  auto again = NetFaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->to_string(), text);
}

TEST(NetPlanTest, PartitionGroupSortedUnique) {
  auto plan = NetFaultPlan::parse("partition:0+10@2.0.2.1");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->partitions[0].group, (std::vector<int>{0, 1, 2}));
}

// The window is [at, at+len) and only a pair split by the group is cut,
// in either direction; a second window applies on its own.
TEST(NetPlanTest, PartitionedWindowAndGroup) {
  auto plan = NetFaultPlan::parse("partition:10+5@0.1,partition:30+1@2");
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->partitioned(9, 0, 2));
  EXPECT_TRUE(plan->partitioned(10, 0, 2));
  EXPECT_TRUE(plan->partitioned(14, 2, 1));
  EXPECT_FALSE(plan->partitioned(15, 0, 2));
  EXPECT_FALSE(plan->partitioned(12, 0, 1));  // both inside the group
  EXPECT_FALSE(plan->partitioned(12, 2, 3));  // both outside it
  EXPECT_TRUE(plan->partitioned(30, 1, 2));
  EXPECT_FALSE(plan->partitioned(31, 1, 2));
  EXPECT_FALSE(NetFaultPlan{}.partitioned(0, 0, 1));
}

// A repeated scalar spec used to silently override; it is now a parse
// error — a duplicated kind almost always means a typo'd plan, and a
// plan that silently halves its intended loss rate invalidates whatever
// experiment it was driving.
TEST(NetPlanTest, DuplicateScalarSpecIsAnError) {
  EXPECT_FALSE(NetFaultPlan::parse("drop:10,drop:300").has_value());
  std::string error;
  EXPECT_FALSE(NetFaultPlan::parse("drop:10,drop:300", &error).has_value());
  EXPECT_NE(error.find("duplicate drop"), std::string::npos) << error;
}

TEST(NetPlanTest, MultiplePartitionsAndCrashesAccumulate) {
  auto plan =
      NetFaultPlan::parse("partition:0+5@0,partition:20+5@1,crash:0@3,crash:1@7");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->partitions.size(), 2u);
  EXPECT_EQ(plan->crashes.size(), 2u);
}

TEST(NetPlanTest, RejectsJunk) {
  EXPECT_FALSE(NetFaultPlan::parse("").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("drop").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("drop:").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("drop:abc").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("drop:1001").has_value());  // > 1000‰
  EXPECT_FALSE(NetFaultPlan::parse("delay:100").has_value());  // no +max
  EXPECT_FALSE(NetFaultPlan::parse("delay:100+0").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("partition:5@0").has_value());  // no +len
  EXPECT_FALSE(NetFaultPlan::parse("partition:5+10@").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("crash:1").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("recover:1").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("recover:1@5").has_value());  // no +down
  EXPECT_FALSE(NetFaultPlan::parse("recover:1@5+").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("recover:@5+9").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("explode:9").has_value());
  EXPECT_FALSE(NetFaultPlan::parse("drop:100,").has_value());
  EXPECT_FALSE(NetFaultPlan::parse(",drop:100").has_value());
}

TEST(NetPlanTest, RandomIsDeterministicInSeed) {
  Rng a(42);
  Rng b(42);
  const NetFaultPlan pa = NetFaultPlan::random(a, 5, 1000, 100, 300, 300);
  const NetFaultPlan pb = NetFaultPlan::random(b, 5, 1000, 100, 300, 300);
  EXPECT_EQ(pa.to_string(), pb.to_string());
  EXPECT_EQ(pa.drop_permille, 100u);
}

TEST(NetPlanTest, RandomPartitionIsProperSubset) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const NetFaultPlan plan =
        NetFaultPlan::random(rng, 5, 500, 0, /*partition=*/1000, 0);
    ASSERT_EQ(plan.partitions.size(), 1u);
    const auto& group = plan.partitions[0].group;
    EXPECT_GE(group.size(), 1u);
    EXPECT_LT(group.size(), 5u);  // proper subset: never all replicas
    for (int node : group) {
      EXPECT_GE(node, 0);
      EXPECT_LT(node, 5);
    }
    EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
  }
}

TEST(NetPlanTest, RandomPlansRoundTrip) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    const NetFaultPlan plan = NetFaultPlan::random(rng, 3, 400, 100, 200, 200);
    if (plan.empty()) continue;
    auto parsed = NetFaultPlan::parse(plan.to_string());
    ASSERT_TRUE(parsed.has_value()) << plan.to_string();
    EXPECT_EQ(parsed->to_string(), plan.to_string());
  }
}

TEST(NetPlanTest, RandomRecoveryPlansAreGenerated) {
  // With recover_permille=1000 every replica gets at least one
  // crash–downtime–rejoin cycle.
  Rng rng(7);
  const NetFaultPlan plan =
      NetFaultPlan::random(rng, 3, 1600, 0, 0, 0, /*recover_permille=*/1000);
  EXPECT_GE(plan.recoveries.size(), 3u);
  for (const RecoverSpec& rec : plan.recoveries) {
    EXPECT_GE(rec.node, 0);
    EXPECT_LT(rec.node, 3);
    EXPECT_GE(rec.downtime, 1u);
  }
}

// Satellite: structural round-trip `parse(to_string(p)) == p` across
// 1000 seeds, with every fault dimension (including recovery) enabled.
// Stronger than comparing printed strings: any field to_string forgets
// or parse misreads breaks operator== even if the text looks right.
TEST(NetPlanTest, RandomPlansRoundTripStructurally) {
  int non_empty = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const NetFaultPlan plan = NetFaultPlan::random(
        rng, 3, 1600, /*loss=*/100, /*partition=*/200, /*crash=*/200,
        /*recover_permille=*/400);
    if (plan.empty()) continue;
    ++non_empty;
    auto parsed = NetFaultPlan::parse(plan.to_string());
    ASSERT_TRUE(parsed.has_value()) << plan.to_string();
    EXPECT_TRUE(*parsed == plan) << plan.to_string();
  }
  EXPECT_GT(non_empty, 900);  // the sweep actually exercised plans
}

}  // namespace
}  // namespace compreg::net
