// Conservation law for the statement-8 counters under native threads.
//
// Level l of a C-component register is scanned twice per scan of level
// l-1 (statements 4 and 6) and once per 0-Write at level l-1 (Writer 0's
// statement 4), and a 0-Write at level l-1 is an update to component
// l-1. Every scan of a level ends in exactly one statement-8 case (or,
// at the C == 1 level, one base read), so once the threads are joined:
//
//   cases(0) = scans performed
//   cases(l) = 2 * cases(l-1) + updates to component l-1,   l = 1..C-1
//
// where cases(C-1) is the last level's base_reads. The counters are
// striped per reader slot; scan_case_stats() sums the slots, and a
// concurrent observer must see every summed field only grow.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/composite_register.h"

namespace compreg::core {
namespace {

using Reg = CompositeRegister<std::uint64_t>;

constexpr int kReaders = 3;
constexpr int kScansPerReader = 1000;
constexpr int kUpdates = 3000;

std::uint64_t cases(const Reg::ScanCaseStats& s) {
  return s.adopted_snapshot + s.first_collect + s.second_collect;
}

class ScanCaseStatsTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanCaseStatsTest, CountsAreConservedAcrossLevels) {
  const int c = GetParam();
  Reg reg(c, kReaders, 0);

  std::atomic<bool> go{false};
  std::atomic<int> scanners_left{kReaders};
  std::vector<std::uint64_t> updates(static_cast<std::size_t>(c), 0);
  std::vector<std::thread> threads;

  threads.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < kUpdates; ++i) {
      const int k = i % c;
      reg.update(k, static_cast<std::uint64_t>(i) + 1);
      ++updates[static_cast<std::size_t>(k)];
    }
  });
  for (int j = 0; j < kReaders; ++j) {
    threads.emplace_back([&, j] {
      std::vector<Item<std::uint64_t>> out;
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int n = 0; n < kScansPerReader; ++n) reg.scan_items(j, out);
      scanners_left.fetch_sub(1, std::memory_order_release);
    });
  }

  // Observer: the summed counters are a monotone snapshot.
  bool monotone = true;
  std::thread observer([&] {
    std::vector<Reg::ScanCaseStats> prev = reg.scan_case_stats_by_level();
    while (!go.load(std::memory_order_acquire)) {
    }
    while (scanners_left.load(std::memory_order_acquire) > 0) {
      const std::vector<Reg::ScanCaseStats> now =
          reg.scan_case_stats_by_level();
      for (std::size_t l = 0; l < now.size(); ++l) {
        monotone = monotone &&
                   now[l].adopted_snapshot >= prev[l].adopted_snapshot &&
                   now[l].first_collect >= prev[l].first_collect &&
                   now[l].second_collect >= prev[l].second_collect &&
                   now[l].base_reads >= prev[l].base_reads;
      }
      prev = now;
    }
  });

  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  observer.join();
  EXPECT_TRUE(monotone) << "a summed counter went backwards";

  const std::vector<Reg::ScanCaseStats> levels =
      reg.scan_case_stats_by_level();
  ASSERT_EQ(levels.size(), static_cast<std::size_t>(c));
  EXPECT_EQ(cases(levels[0]),
            static_cast<std::uint64_t>(kReaders) * kScansPerReader);
  for (std::size_t l = 1; l < levels.size(); ++l) {
    const bool last = l + 1 == levels.size();
    const std::uint64_t got = last ? levels[l].base_reads : cases(levels[l]);
    EXPECT_EQ(got, 2 * cases(levels[l - 1]) + updates[l - 1])
        << "level " << l << " of C=" << c;
  }
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const bool last = l + 1 == levels.size();
    EXPECT_EQ(last ? cases(levels[l]) : levels[l].base_reads, 0u)
        << "level " << l << " of C=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Components, ScanCaseStatsTest,
                         ::testing::Values(2, 3, 4, 5, 6));

TEST(ScanCaseStatsTest, SingleComponentCountsBaseReadsPerReader) {
  Reg reg(1, kReaders, 0);
  std::vector<Item<std::uint64_t>> out;
  for (int j = 0; j < kReaders; ++j) {
    for (int n = 0; n <= j; ++n) reg.scan_items(j, out);
  }
  const Reg::ScanCaseStats s = reg.scan_case_stats();
  EXPECT_EQ(s.base_reads, 6u);  // 1 + 2 + 3 scans
  EXPECT_EQ(cases(s), 0u);
}

}  // namespace
}  // namespace compreg::core
