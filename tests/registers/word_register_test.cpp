#include "registers/word_register.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "sched/access.h"
#include "util/space_accounting.h"

namespace compreg::registers {
namespace {

TEST(WordRegisterTest, InitialValue) {
  WordRegister<int> reg(41);
  EXPECT_EQ(reg.read(), 41);
}

TEST(WordRegisterTest, ReadsLastWrite) {
  WordRegister<int> reg(0);
  reg.write(1);
  EXPECT_EQ(reg.read(), 1);
  reg.write(-7);
  EXPECT_EQ(reg.read(), -7);
}

TEST(WordRegisterTest, CountsOperations) {
  WordRegister<std::uint8_t> reg(0);
  OpWindow win;
  reg.write(1);
  (void)reg.read();
  EXPECT_EQ(win.delta().reg_reads, 1u);
  EXPECT_EQ(win.delta().reg_writes, 1u);
}

// Records the kind of every labeled access while installed.
class KindRecorder final : public sched::AccessObserver {
 public:
  void on_access(const sched::Access& access, int /*proc*/,
                 std::uint64_t /*sched_pos*/) override {
    kinds.push_back(access.kind);
  }
  std::vector<sched::AccessKind> kinds;
};

// A write of the value the register already holds stores nothing, but
// the model still sees it: one counted write and one labeled write
// point, the value unchanged, and a changed write after it lands.
TEST(WordRegisterTest, SameValueWriteKeepsTheModel) {
  WordRegister<std::uint8_t> reg(2);
  KindRecorder recorder;
  OpWindow win;
  {
    sched::ScopedAccessObserver install(&recorder);
    reg.write(2);
  }
  EXPECT_EQ(win.delta().reg_writes, 1u);
  EXPECT_EQ(win.delta().reg_reads, 0u);
  ASSERT_EQ(recorder.kinds.size(), 1u);
  EXPECT_EQ(recorder.kinds[0], sched::AccessKind::kWrite);
  EXPECT_EQ(reg.read(), 2);
  reg.write(0);
  EXPECT_EQ(reg.read(), 0);
  reg.write(0);
  reg.write(1);
  EXPECT_EQ(reg.read(), 1);
  EXPECT_EQ(win.delta().reg_writes, 4u);
}

TEST(WordRegisterTest, AccountsSpace) {
  SpaceAccountant acct;
  {
    ScopedSpaceAccounting scope(acct);
    WordRegister<std::uint8_t> reg(0, "Z", 2, 1);
  }
  ASSERT_EQ(acct.records().size(), 1u);
  EXPECT_EQ(acct.records()[0].label, "Z");
  EXPECT_EQ(acct.records()[0].bits, 2u);
}

TEST(WordCellTest, CellInterfaceMatchesRegister) {
  WordCell<std::uint8_t> cell(3, 7, "Z", 2);
  EXPECT_EQ(cell.read(0), 7);
  EXPECT_EQ(cell.read(2), 7);
  cell.write(1);
  EXPECT_EQ(cell.read(1), 1);
}

TEST(WordCellTest, CountsOps) {
  WordCell<int> cell(1, 0);
  OpWindow win;
  cell.write(5);
  (void)cell.read(0);
  EXPECT_EQ(win.delta().reg_writes, 1u);
  EXPECT_EQ(win.delta().reg_reads, 1u);
}

TEST(WordCellTest, AccountsSpaceWithReaderCount) {
  SpaceAccountant acct;
  {
    ScopedSpaceAccounting scope(acct);
    WordCell<std::uint8_t> cell(4, 0, "Z", 2);
  }
  ASSERT_EQ(acct.records().size(), 1u);
  EXPECT_EQ(acct.records()[0].readers, 4);
  EXPECT_EQ(acct.records()[0].bits, 2u);
}

TEST(WordRegisterTest, ConcurrentReadersSeeMonotoneValues) {
  WordRegister<std::uint64_t> reg(0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 200000; ++i) reg.write(i);
    stop.store(true);
  });
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      const std::uint64_t v = reg.read();
      EXPECT_GE(v, last);
      last = v;
    }
  });
  writer.join();
  reader.join();
}

}  // namespace
}  // namespace compreg::registers
