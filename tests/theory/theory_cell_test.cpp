#include "theory/chain.h"

#include <gtest/gtest.h>

#include "lin/register_checker.h"
#include "registers/register_concepts.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"
#include "util/op_counter.h"
#include "util/space_accounting.h"

namespace compreg::theory {
namespace {

static_assert(registers::MrswCell<TheoryCell<int>, int>,
              "TheoryCell must satisfy the cell concept");
static_assert(registers::MrswCell<TheoryCell<std::uint8_t>, std::uint8_t>);

TEST(TheoryCellTest, SequentialSemantics) {
  TheoryCell<int> cell(3, 9);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(cell.read(j), 9);
  cell.write(10);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(cell.read(j), 10);
}

TEST(TheoryCellTest, CountsOneModelOpPerAccess) {
  TheoryCell<int> cell(2, 0);
  OpWindow win;
  cell.write(1);
  (void)cell.read(0);
  (void)cell.read(1);
  EXPECT_EQ(win.delta().reg_writes, 1u);
  EXPECT_EQ(win.delta().reg_reads, 2u);
}

TEST(TheoryCellTest, AccountsItselfAndItsPrimitives) {
  SpaceAccountant acct;
  {
    ScopedSpaceAccounting scope(acct);
    TheoryCell<int> cell(2, 0, "Ytest", 32);
  }
  std::uint64_t cells = 0, swsr = 0;
  for (const auto& roll : acct.rollup()) {
    if (roll.label == "Ytest") cells = roll.registers;
    if (roll.label == "swsr_regular") swsr = roll.registers;
  }
  EXPECT_EQ(cells, 1u);
  EXPECT_EQ(swsr, 2u + 4u);  // R own copies + R^2 report registers
}

TEST(TheoryCellTest, AtomicUnderSimSchedules) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    sched::RandomPolicy policy(seed * 7);
    sched::SimScheduler sim(policy);
    TheoryCell<int> cell(2, 0);
    lin::RegisterHistory hist;
    std::atomic<std::uint64_t> clock{1};
    sim.spawn([&] {
      for (int i = 1; i <= 5; ++i) {
        lin::RegWrite w;
        w.id = static_cast<std::uint64_t>(i);
        w.start = clock.fetch_add(1);
        cell.write(i);
        w.end = clock.fetch_add(1);
        hist.writes.push_back(w);
      }
    });
    std::array<std::vector<lin::RegRead>, 2> reads;
    for (int j = 0; j < 2; ++j) {
      sim.spawn([&, j] {
        for (int i = 0; i < 5; ++i) {
          lin::RegRead r;
          r.start = clock.fetch_add(1);
          r.id = static_cast<std::uint64_t>(cell.read(j));
          r.end = clock.fetch_add(1);
          reads[static_cast<std::size_t>(j)].push_back(r);
        }
      });
    }
    sim.run();
    for (auto& rv : reads) {
      hist.reads.insert(hist.reads.end(), rv.begin(), rv.end());
    }
    // Unique write values double as ids here.
    const lin::CheckResult result = lin::check_register_atomicity(hist);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
  }
}

}  // namespace
}  // namespace compreg::theory
