// Negative-path coverage for the NetFaultPlan grammar: every rejection
// must come with a precise, actionable error message. A chaos run whose
// plan silently parsed to something else is worse than one that refused
// to start, so the error text names the offending spec and the shape it
// wanted.
#include "net/net_plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace compreg::net {
namespace {

// parse(text) must fail AND parse(text, &error) must mention every
// fragment in `expect` (case-sensitive substring match).
void expect_error(const std::string& text,
                  const std::vector<std::string>& expect) {
  EXPECT_FALSE(NetFaultPlan::parse(text).has_value()) << text;
  std::string error;
  auto plan = NetFaultPlan::parse(text, &error);
  EXPECT_FALSE(plan.has_value()) << text;
  EXPECT_FALSE(error.empty()) << text;
  for (const std::string& fragment : expect) {
    EXPECT_NE(error.find(fragment), std::string::npos)
        << "plan '" << text << "': error '" << error
        << "' lacks fragment '" << fragment << "'";
  }
}

TEST(NetPlanNegativeTest, MalformedRecoverSpecs) {
  // Each malformed variant names the recover shape in its error.
  expect_error("recover:1", {"recover", "<node>@<msgs>+<downsteps>"});
  expect_error("recover:1@5", {"recover", "+<downsteps>", "1@5"});
  expect_error("recover:1@5+", {"recover", "1@5+"});
  expect_error("recover:@5+9", {"recover", "@5+9"});
  expect_error("recover:1@+9", {"recover"});
  expect_error("recover:1@5+9x", {"recover"});
  expect_error("recover:-1@5+9", {"recover"});
}

TEST(NetPlanNegativeTest, OutOfRangeNodeIds) {
  // kMaxPlanNode bounds every node-naming spec kind.
  expect_error("recover:64@5+9", {"recover", "64", "out of range", "0..63"});
  expect_error("crash:99@5", {"crash", "99", "out of range"});
  expect_error("partition:0+10@0.64", {"partition", "64", "out of range"});
  // The bound itself is legal.
  EXPECT_TRUE(NetFaultPlan::parse("crash:63@5").has_value());
  EXPECT_TRUE(NetFaultPlan::parse("recover:63@5+9").has_value());
  EXPECT_TRUE(NetFaultPlan::parse("partition:0+10@63").has_value());
}

TEST(NetPlanNegativeTest, DuplicateScalarClauses) {
  expect_error("drop:10,drop:20", {"duplicate drop", "at most once"});
  expect_error("delay:100+3,delay:200+4", {"duplicate delay"});
  expect_error("dup:10,dup:20", {"duplicate dup"});
  expect_error("reorder:10,reorder:20", {"duplicate reorder"});
  // Duplicates are rejected even when the repeated value is identical —
  // the plan text is still ambiguous about intent.
  expect_error("drop:10,delay:100+3,drop:10", {"duplicate drop"});
  // Accumulating kinds (partition/crash/recover) still repeat freely.
  auto plan = NetFaultPlan::parse("recover:0@1+2,recover:0@3+4,crash:1@5");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->recoveries.size(), 2u);
}

TEST(NetPlanNegativeTest, ScalarValueErrorsNameTheSpec) {
  expect_error("drop:1001", {"drop", "1001", "0..1000"});
  expect_error("drop:abc", {"drop", "abc"});
  expect_error("delay:100", {"delay", "<permille>+<maxsteps>"});
  expect_error("delay:100+0", {"delay", "maxsteps >= 1"});
  expect_error("reorder:-5", {"reorder"});
}

// Numbers are digits only. A sign would wrap (-1 becomes 2^64-1, a
// fault that never fires) or break the to_string() round trip, and so
// would a leading space.
TEST(NetPlanNegativeTest, SignsAndSpacesAreNotNumbers) {
  expect_error("crash:0@-1", {"crash", "0@-1"});
  expect_error("partition:-1+5@0", {"partition", "-1+5@0"});
  expect_error("drop:+100", {"drop", "+100"});
  expect_error("recover: 0@1+2", {"recover", " 0@1+2"});
  expect_error("delay:100+-3", {"delay"});
  expect_error("partition:0+5@ 1", {"partition"});
}

TEST(NetPlanNegativeTest, StructuralErrors) {
  expect_error("", {"malformed plan"});
  expect_error("drop:100,", {"malformed plan"});
  expect_error(",drop:100", {"malformed plan"});
  expect_error("drop", {"malformed plan"});
  expect_error("explode:9", {"unknown spec kind", "explode"});
}

TEST(NetPlanNegativeTest, SuccessLeavesErrorUntouched) {
  std::string error = "sentinel";
  auto plan = NetFaultPlan::parse("drop:100", &error);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(error, "sentinel");
}

}  // namespace
}  // namespace compreg::net
