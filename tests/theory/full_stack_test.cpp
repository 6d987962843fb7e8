// Full-stack instantiation: the paper's construction running on the
// theoretical register chain (MRSW-from-SWSR over simulated regular
// registers), with the simulator interleaving at PRIMITIVE granularity
// — i.e. schedules cut through the middle of individual Y[0]/Z
// accesses. The construction must not care: it only assumes its base
// registers are linearizable.
#include <gtest/gtest.h>

#include "core/composite_register.h"
#include "lin/shrinking_checker.h"
#include "lin/wing_gong.h"
#include "lin/workload.h"
#include "sched/policy.h"
#include "theory/chain.h"

namespace compreg::theory {
namespace {

using FullStackRegister =
    core::CompositeRegister<std::uint64_t, TheoryCell, TheoryCell>;

TEST(FullStackTest, SequentialSemantics) {
  FullStackRegister reg(3, 2, 5);
  EXPECT_EQ(reg.scan(0), (std::vector<std::uint64_t>{5, 5, 5}));
  reg.update(0, 10);
  reg.update(1, 20);
  reg.update(2, 30);
  EXPECT_EQ(reg.scan(1), (std::vector<std::uint64_t>{10, 20, 30}));
}

TEST(FullStackTest, MrswModelCostsUnchanged) {
  // The TR/TW recurrences count MRSW-register operations and must be
  // identical on this backend (the chain sits BELOW that level).
  FullStackRegister reg(3, 2, 0);
  for (int k = 0; k < 3; ++k) reg.update(k, 1);
  std::vector<core::Item<std::uint64_t>> out;
  OpWindow win;
  reg.scan_items(0, out);
  EXPECT_EQ(win.delta().total(), FullStackRegister::read_cost(3, 2));
  OpWindow win2;
  reg.update(0, 2);
  EXPECT_EQ(win2.delta().total(), FullStackRegister::write_cost(3, 2, 0));
}

TEST(FullStackTest, PrimitiveOpsDwarfModelOps) {
  FullStackRegister reg(2, 1, 0);
  reg.update(0, 1);
  std::vector<core::Item<std::uint64_t>> out;
  const TheoryOps before = theory_ops();
  reg.scan_items(0, out);
  const TheoryOps after = theory_ops();
  // Every MRSW op decomposes into >= 1 regular-register ops.
  EXPECT_GE((after.regular_reads + after.regular_writes) -
                (before.regular_reads + before.regular_writes),
            FullStackRegister::read_cost(2, 1));
}

class FullStackSimSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(FullStackSimSweep, PrimitiveGranularitySchedulesLinearizable) {
  const auto [c, r, seed] = GetParam();
  FullStackRegister reg(c, r, 0);
  sched::RandomPolicy policy(seed);
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 4;
  cfg.scans_per_reader = 4;
  const lin::History h = lin::run_sim_workload(reg, policy, cfg);
  const lin::CheckResult result = lin::check_shrinking_lemma(h);
  ASSERT_TRUE(result.ok) << result.violation;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FullStackSimSweep,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 2),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull)));

TEST(FullStackTest, TinyHistoryPassesWingGongToo) {
  for (std::uint64_t seed = 10; seed < 20; ++seed) {
    FullStackRegister reg(2, 1, 0);
    sched::RandomPolicy policy(seed);
    lin::WorkloadConfig cfg;
    cfg.writes_per_writer = 3;
    cfg.scans_per_reader = 3;
    const lin::History h = lin::run_sim_workload(reg, policy, cfg);
    ASSERT_TRUE(lin::check_shrinking_lemma(h).ok);
    const lin::CheckResult wg = lin::check_wing_gong(h);
    ASSERT_TRUE(wg.ok) << wg.violation;
  }
}

}  // namespace
}  // namespace compreg::theory
