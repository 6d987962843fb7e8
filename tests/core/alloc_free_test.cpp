// Steady-state heap audit of CompositeRegister<uint64_t> over HazardCell:
// once every reader slot has scanned and every component has been
// updated, scans and updates perform no heap allocation at all, and
// construction allocates no more than the construction did before Y[0]
// reads, HazardCell nodes and collect buffers were made reusable, nor
// more than it does with flat Y[0] records, nor more than one block per
// HazardCell. A HazardCell write never allocates, even when every
// reader pins a different node.
//
// This binary replaces the global operator new/delete with a counter
// that forwards to malloc/free, so ASan and TSan still see every block.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/composite_register.h"
#include "registers/hazard_cell.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  // relaxed: a plain event counter read by the allocating thread.
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);  // as above
  void* p = nullptr;
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace compreg::core {
namespace {

constexpr int kReaders = 3;

// Constructor allocations of CompositeRegister<uint64_t>(C, 3, 0) before
// this optimisation, counted by this file's operator new (aligned forms
// included), indexed by C. Debug builds add the two overlap guards per
// recursion level.
constexpr std::uint64_t kCtorAllocsBefore[] = {0, 0, 19, 35, 52, 70, 89};

// The same count once each Y[0] record became one flat object: a
// HazardCell node is one allocation, and Writer 0's record and the
// initial record keep seq and ss inline.
constexpr std::uint64_t kCtorAllocsFlatY0[] = {0, 0, 9, 14, 19, 24, 29};

// The same count once each HazardCell became one block (its hazard
// slots and its node slab) instead of a node plus a slot array.
constexpr std::uint64_t kCtorAllocsSlab[] = {0, 0, 7, 11, 15, 19, 23};

std::uint64_t ctor_alloc_bound(const std::uint64_t* table, int c) {
  std::uint64_t bound = table[c];
#ifndef NDEBUG
  bound += 2 * static_cast<std::uint64_t>(c);
#endif
  return bound;
}

class AllocFreeTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocFreeTest, SteadyStateScansAndUpdatesDoNotAllocate) {
  const int c = GetParam();
  constexpr int kOps = 1000;

  const std::uint64_t before_ctor = allocs();
  CompositeRegister<std::uint64_t> reg(c, kReaders, 0);
  const std::uint64_t ctor = allocs() - before_ctor;

  // Warm-up: one scan per reader slot sizes every level's collect
  // buffers; one update per component warms every Writer 0's snapshot
  // buffer (a HazardCell builds its nodes in the block its constructor
  // allocated, so its writes never allocate).
  std::vector<Item<std::uint64_t>> out;
  for (int j = 0; j < kReaders; ++j) reg.scan_items(j, out);
  for (int k = 0; k < c; ++k) reg.update(k, 1);

  const std::uint64_t before_scans = allocs();
  for (int i = 0; i < kOps; ++i) reg.scan_items(i % kReaders, out);
  const std::uint64_t scans = allocs() - before_scans;

  std::vector<std::uint64_t> last(static_cast<std::size_t>(c), 1);
  const std::uint64_t before_updates = allocs();
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t v = 100 + static_cast<std::uint64_t>(i);
    reg.update(i % c, v);
    last[static_cast<std::size_t>(i % c)] = v;
  }
  const std::uint64_t updates = allocs() - before_updates;

  EXPECT_EQ(scans, 0u) << "allocations over " << kOps << " scans, C=" << c;
  EXPECT_EQ(updates, 0u) << "allocations over " << kOps << " updates, C="
                         << c;
  EXPECT_LE(ctor, ctor_alloc_bound(kCtorAllocsBefore, c))
      << "constructor allocations, C=" << c;
  EXPECT_LE(ctor, ctor_alloc_bound(kCtorAllocsFlatY0, c))
      << "constructor allocations with flat Y[0] records, C=" << c;
  EXPECT_LE(ctor, ctor_alloc_bound(kCtorAllocsSlab, c))
      << "constructor allocations with one block per HazardCell, C=" << c;

  // The reused buffers still carry the right values.
  reg.scan_items(0, out);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(c));
  for (int k = 0; k < c; ++k) {
    EXPECT_EQ(out[static_cast<std::size_t>(k)].val,
              last[static_cast<std::size_t>(k)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Components, AllocFreeTest,
                         ::testing::Values(2, 3, 4, 5, 6));

// The pool fills its slab of 2*readers+2 nodes while every reader parks
// inside a visitor on a different node: the nested holds of
// HazardCellTest.PoolNeverExceedsTwiceReadersPlusTwo. The cell builds
// those nodes in the block its constructor allocated, so no write
// allocates.
TEST(HazardCellAllocTest, WritesNeverAllocate) {
  using Cell = registers::HazardCell<std::uint64_t>;
  const std::uint64_t before_ctor = allocs();
  Cell cell(kReaders, 0);
  EXPECT_EQ(allocs() - before_ctor, 1u) << "constructor allocations";

  const std::uint64_t before_writes = allocs();
  std::uint64_t next = 1;
  auto write_some = [&](int n) {
    for (int i = 0; i < n; ++i) cell.write(next++);
  };
  // A visitor that writes is legal only in a single-threaded test: the
  // cell runs it inside the read, while the slot pins the node.
  std::function<void(int)> hold = [&](int j) {
    (void)cell.read(j, [&](const std::uint64_t& held) {
      const std::uint64_t copy = held;
      write_some(1);
      if (j + 1 < kReaders) {
        hold(j + 1);
      } else {
        write_some(100);
      }
      EXPECT_EQ(held, copy) << "node held by reader " << j << " recycled";
      return 0;
    });
  };
  // std::function may allocate for the capture; count only the cell.
  const std::uint64_t function_allocs = allocs() - before_writes;
  hold(0);
  write_some(100);
  EXPECT_EQ(cell.node_count(), 2u * kReaders + 2);
  EXPECT_EQ(allocs() - before_writes, function_allocs)
      << "allocations over " << next - 1 << " writes";
  EXPECT_EQ(cell.read(0), next - 1);
}

}  // namespace
}  // namespace compreg::core
