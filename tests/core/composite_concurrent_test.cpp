// Native-thread stress: run concurrent writers and scanners against the
// construction and verify the recorded history against the paper's own
// correctness condition (the Shrinking Lemma's five conditions).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/composite_register.h"
#include "lin/shrinking_checker.h"
#include "lin/workload.h"
#include "registers/tagged_cell.h"

namespace compreg::core {
namespace {

class ConcurrentSweep
    : public ::testing::TestWithParam<std::tuple<int, int, unsigned>> {};

TEST_P(ConcurrentSweep, HistorySatisfiesShrinkingLemma) {
  const auto [c, r, stress] = GetParam();
  CompositeRegister<std::uint64_t> reg(c, r, 0);
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 300;
  cfg.scans_per_reader = 300;
  cfg.stress_permille = stress;
  cfg.seed = 42 + static_cast<std::uint64_t>(c) * 17 + r;
  const lin::History h = lin::run_native_workload(reg, cfg);
  EXPECT_EQ(h.writes.size(), static_cast<std::size_t>(c) * 300u);
  EXPECT_EQ(h.reads.size(), static_cast<std::size_t>(r) * 300u);
  const lin::CheckResult result = lin::check_shrinking_lemma(h);
  EXPECT_TRUE(result.ok) << result.violation;
}

// C = 9 spills the Y[0] ss of the three outer recursion levels past the
// inline budget (and, with R = 4, the seq of the inner ones), so the
// sanitizer jobs see heap-backed records recycled under concurrency.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConcurrentSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 9),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(0u, 200u)));

TEST(CompositeConcurrentTest, TaggedBackendPassesToo) {
  CompositeRegister<std::uint64_t, registers::TaggedCell> reg(3, 2, 0);
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 150;
  cfg.scans_per_reader = 150;
  cfg.stress_permille = 100;
  const lin::History h = lin::run_native_workload(reg, cfg);
  const lin::CheckResult result = lin::check_shrinking_lemma(h);
  EXPECT_TRUE(result.ok) << result.violation;
}

TEST(CompositeConcurrentTest, LongRunSingleShape) {
  CompositeRegister<std::uint64_t> reg(4, 3, 0);
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 2000;
  cfg.scans_per_reader = 2000;
  cfg.seed = 7;
  const lin::History h = lin::run_native_workload(reg, cfg);
  const lin::CheckResult result = lin::check_shrinking_lemma(h);
  EXPECT_TRUE(result.ok) << result.violation;
}

// Snapshot monotonicity observed from one reader thread: successive
// scans by the same reader must be componentwise non-decreasing in ids
// (a direct user-visible corollary of Read Precedence).
TEST(CompositeConcurrentTest, PerReaderMonotonicity) {
  CompositeRegister<std::uint64_t> reg(3, 1, 0);
  std::atomic<bool> stop{false};
  std::thread writers([&] {
    std::uint64_t i = 0;
    while (!stop.load()) {
      reg.update(static_cast<int>(i % 3), i);
      ++i;
    }
  });
  std::vector<Item<std::uint64_t>> prev(3), cur;
  for (int n = 0; n < 5000; ++n) {
    reg.scan_items(0, cur);
    for (int k = 0; k < 3; ++k) {
      ASSERT_GE(cur[static_cast<std::size_t>(k)].id,
                prev[static_cast<std::size_t>(k)].id);
    }
    prev = cur;
  }
  stop.store(true);
  writers.join();
}

}  // namespace
}  // namespace compreg::core
