#include "core/composite_register.h"

#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "registers/tagged_cell.h"
#include "sched/access.h"

namespace compreg::core {
namespace {

template <typename T>
class CompositeSequentialTest : public ::testing::Test {};

struct HazardBackend {
  template <typename V>
  using Reg = CompositeRegister<V, registers::HazardCell>;
  template <typename T>
  using Cell = registers::HazardCell<T>;
};
struct TaggedBackend {
  template <typename V>
  using Reg = CompositeRegister<V, registers::TaggedCell>;
  template <typename T>
  using Cell = registers::TaggedCell<T>;
};

using Backends = ::testing::Types<HazardBackend, TaggedBackend>;
TYPED_TEST_SUITE(CompositeSequentialTest, Backends);

TYPED_TEST(CompositeSequentialTest, InitialSnapshot) {
  typename TypeParam::template Reg<std::uint64_t> reg(4, 2, 99);
  const auto items = reg.scan_items(0);
  ASSERT_EQ(items.size(), 4u);
  for (const auto& item : items) {
    EXPECT_EQ(item.val, 99u);
    EXPECT_EQ(item.id, 0u);  // the Initial Write
  }
}

TYPED_TEST(CompositeSequentialTest, SingleComponentActsAsRegister) {
  typename TypeParam::template Reg<std::uint64_t> reg(1, 3, 0);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    EXPECT_EQ(reg.update(0, i * 10), i);  // ids count up
    for (int j = 0; j < 3; ++j) {
      const auto items = reg.scan_items(j);
      ASSERT_EQ(items.size(), 1u);
      EXPECT_EQ(items[0].val, i * 10);
      EXPECT_EQ(items[0].id, i);
    }
  }
}

// Cell ids drawn while `build` runs: new_cell_id() just after, minus
// new_cell_id() just before, minus the one `before` itself took.
template <typename F>
std::uint64_t ids_drawn(F&& build) {
  const std::uint64_t before = sched::new_cell_id();
  build();
  return sched::new_cell_id() - before - 1;
}

// Outside an arena, a construction hands out one gap-free run of ids:
// as many as the labels it builds, which are the Z cells (one each) and
// the Y[0] cells (counted by building the same cells alone).
TYPED_TEST(CompositeSequentialTest, ConstructionIdsAreOneGapFreeRun) {
  constexpr int kReaders = 3;
  for (int c = 1; c <= 6; ++c) {
    std::uint64_t labels = 0;
    for (int k = 0; k < c; ++k) {
      if (k + 1 < c) labels += static_cast<std::uint64_t>(kReaders + k);
      labels += ids_drawn([&] {
        typename TypeParam::template Cell<Y0Record<std::uint64_t>> y0(
            kReaders + k, {});
      });
    }
    EXPECT_EQ(ids_drawn([&] {
                typename TypeParam::template Reg<std::uint64_t> reg(
                    c, kReaders, 0);
              }),
              labels)
        << "C=" << c;
  }
}

// Inside an open arena the construction takes its ids from that arena,
// C + sum(R+k) offsets, and opens none of its own.
TEST(CompositeCellIdsTest, ArenaOffsetsCountTheCellsBuilt) {
  // C Y[0] cells plus 3+k Z cells at each level k < C-1, for R = 3.
  constexpr std::uint64_t kCells[] = {0, 1, 5, 10, 16, 23, 31};
  for (int c = 1; c <= 6; ++c) {
    sched::CellIdArena arena(64);
    { CompositeRegister<std::uint64_t> reg(c, 3, 0); }
    EXPECT_EQ(sched::new_cell_id() - arena.base(), kCells[c]) << "C=" << c;
  }
}

TYPED_TEST(CompositeSequentialTest, WritesLandInTheirComponent) {
  typename TypeParam::template Reg<std::uint64_t> reg(3, 1, 0);
  reg.update(0, 10);
  reg.update(1, 20);
  reg.update(2, 30);
  const auto vals = reg.scan(0);
  EXPECT_EQ(vals, (std::vector<std::uint64_t>{10, 20, 30}));
}

TYPED_TEST(CompositeSequentialTest, LastWritePerComponentWins) {
  typename TypeParam::template Reg<std::uint64_t> reg(2, 1, 0);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    reg.update(0, i);
    reg.update(1, 1000 + i);
  }
  const auto items = reg.scan_items(0);
  EXPECT_EQ(items[0].val, 50u);
  EXPECT_EQ(items[0].id, 50u);
  EXPECT_EQ(items[1].val, 1050u);
  EXPECT_EQ(items[1].id, 50u);
}

TYPED_TEST(CompositeSequentialTest, IdsArePerComponent) {
  typename TypeParam::template Reg<std::uint64_t> reg(3, 1, 0);
  reg.update(1, 5);
  reg.update(1, 6);
  reg.update(2, 7);
  const auto items = reg.scan_items(0);
  EXPECT_EQ(items[0].id, 0u);
  EXPECT_EQ(items[1].id, 2u);
  EXPECT_EQ(items[2].id, 1u);
}

TYPED_TEST(CompositeSequentialTest, ManyComponents) {
  constexpr int kC = 8;
  typename TypeParam::template Reg<std::uint64_t> reg(kC, 2, 0);
  for (int k = 0; k < kC; ++k) {
    reg.update(k, static_cast<std::uint64_t>(100 + k));
  }
  for (int j = 0; j < 2; ++j) {
    const auto vals = reg.scan(j);
    for (int k = 0; k < kC; ++k) {
      EXPECT_EQ(vals[static_cast<std::size_t>(k)],
                static_cast<std::uint64_t>(100 + k));
    }
  }
}

TYPED_TEST(CompositeSequentialTest, UpdateReturnsMonotoneIds) {
  typename TypeParam::template Reg<std::uint64_t> reg(2, 1, 0);
  std::uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t id = reg.update(0, static_cast<std::uint64_t>(i));
    EXPECT_EQ(id, last + 1);
    last = id;
  }
}

// Components of one register may hold different types through a
// std::variant value: each scan returns the alternative each component
// was last written with, and a component never written keeps the
// Initial Write's alternative.
TYPED_TEST(CompositeSequentialTest, VariantComponentsKeepTheirAlternative) {
  using V = std::variant<std::uint64_t, std::string, bool>;
  typename TypeParam::template Reg<V> reg(3, 2, V{std::uint64_t{7}});
  reg.update(1, V{std::string("boot")});
  reg.update(2, V{true});
  for (int j = 0; j < 2; ++j) {
    const auto items = reg.scan_items(j);
    ASSERT_EQ(items.size(), 3u);
    ASSERT_TRUE(std::holds_alternative<std::uint64_t>(items[0].val));
    EXPECT_EQ(std::get<std::uint64_t>(items[0].val), 7u);
    EXPECT_EQ(items[0].id, 0u);
    ASSERT_TRUE(std::holds_alternative<std::string>(items[1].val));
    EXPECT_EQ(std::get<std::string>(items[1].val), "boot");
    ASSERT_TRUE(std::holds_alternative<bool>(items[2].val));
    EXPECT_TRUE(std::get<bool>(items[2].val));
  }
  reg.update(0, V{std::uint64_t{43}});
  const auto vals = reg.scan(1);
  EXPECT_EQ(std::get<std::uint64_t>(vals[0]), 43u);
  EXPECT_EQ(std::get<std::string>(vals[1]), "boot");
}

// Parameterized sweep over (C, R): sequential semantics must hold for
// every configuration. C = 8 and C = 10 build Y[0] records whose ss
// (and, deep in the recursion, seq) spill past the inline budget.
class CompositeShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CompositeShapeTest, SequentialReadYourWrites) {
  const auto [c, r] = GetParam();
  CompositeRegister<std::uint64_t> reg(c, r, 7);
  for (int round = 1; round <= 3; ++round) {
    for (int k = 0; k < c; ++k) {
      reg.update(k, static_cast<std::uint64_t>(round * 100 + k));
    }
    for (int j = 0; j < r; ++j) {
      const auto items = reg.scan_items(j);
      ASSERT_EQ(static_cast<int>(items.size()), c);
      for (int k = 0; k < c; ++k) {
        EXPECT_EQ(items[static_cast<std::size_t>(k)].val,
                  static_cast<std::uint64_t>(round * 100 + k));
        EXPECT_EQ(items[static_cast<std::size_t>(k)].id,
                  static_cast<std::uint64_t>(round));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompositeShapeTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 8, 10),
                       ::testing::Values(1, 2, 3, 4)));

// The fields every Y[0] reader touches - item, wc and its own seq[j] -
// share the record's first 64 bytes for every reader count the inline
// budget holds, so a reader that finds a changed node misses on one
// line, not a chain of heap blocks.
TEST(Y0RecordLayoutTest, ReaderFieldsShareTheFirstCacheLine) {
  using Rec = Y0Record<std::uint64_t>;
  constexpr std::size_t kSlots = decltype(Rec::seq)::kInline;
  ASSERT_GE(kSlots, 8u);
  Rec rec;
  rec.seq = {kSlots, {0, 0}};
  rec.ss = {6, Item<std::uint64_t>{}};
  ASSERT_FALSE(rec.seq.spilled());
  ASSERT_FALSE(rec.ss.spilled());
  const auto* base = reinterpret_cast<const char*>(&rec);
  auto end_of = [base](const auto* p, std::size_t n) {
    return static_cast<std::size_t>(reinterpret_cast<const char*>(p + n) -
                                    base);
  };
  EXPECT_LE(end_of(&rec.item, 1), 64u);
  EXPECT_LE(end_of(&rec.wc, 1), 64u);
  EXPECT_LE(end_of(rec.seq.data(), kSlots), 64u);
  // The inline storage is inside the record, not a heap block.
  EXPECT_GT(reinterpret_cast<const char*>(rec.seq.data()), base);
}

}  // namespace
}  // namespace compreg::core
