// Native-thread stress: run concurrent writers and scanners against the
// construction and verify the recorded history against the paper's own
// correctness condition (the Shrinking Lemma's five conditions).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <variant>

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

template <typename T>
class CompositeInvariantTest : public ::testing::Test {};

struct HazardBackend {
  template <typename V>
  using Reg = CompositeRegister<V, registers::HazardCell>;
};
struct TaggedBackend {
  template <typename V>
  using Reg = CompositeRegister<V, registers::TaggedCell>;
};

using Backends = ::testing::Types<HazardBackend, TaggedBackend>;
TYPED_TEST_SUITE(CompositeInvariantTest, Backends);

// The paper's introduction scenario: an invariant across components
// holds in every scan. The writer keeps component 0 == component 1,
// writing 0 then 1, so a scan may see {n+1, n} mid-update but never
// component 1 ahead of component 0 or more than one write behind.
TYPED_TEST(CompositeInvariantTest, CrossComponentInvariantHoldsInEveryScan) {
  typename TypeParam::template Reg<std::uint64_t> reg(2, 1, 0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 20000; ++i) {
      reg.update(0, i);
      reg.update(1, i);
    }
    stop.store(true);
  });
  std::vector<std::uint64_t> pair;
  do {
    reg.scan(0, pair);
    ASSERT_EQ(pair.size(), 2u);
    ASSERT_GE(pair[0], pair[1]);
    ASSERT_LE(pair[0] - pair[1], 1u);
  } while (!stop.load());
  writer.join();
  reg.scan(0, pair);
  EXPECT_EQ(pair, (std::vector<std::uint64_t>{20000, 20000}));
}

// The same invariant across components of different types: the writer
// keeps the string component equal to the decimal rendering of the
// integer one, and every scan agrees up to the one write in flight.
TYPED_TEST(CompositeInvariantTest, MixedTypeComponentsStayConsistent) {
  using V = std::variant<std::uint64_t, std::string>;
  typename TypeParam::template Reg<V> reg(2, 1, V{std::uint64_t{0}});
  reg.update(1, V{std::string("0")});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 5000; ++i) {
      reg.update(0, V{i});
      reg.update(1, V{std::to_string(i)});
    }
    stop.store(true);
  });
  std::vector<V> snap;
  do {
    reg.scan(0, snap);
    ASSERT_EQ(snap.size(), 2u);
    const std::uint64_t n = std::get<std::uint64_t>(snap[0]);
    const std::uint64_t parsed = std::stoull(std::get<std::string>(snap[1]));
    // The integer is written first, so it may lead the string by one.
    ASSERT_GE(n, parsed);
    ASSERT_LE(n - parsed, 1u);
  } while (!stop.load());
  writer.join();
}

}  // namespace
}  // namespace compreg::core
