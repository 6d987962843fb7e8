// Heap audit of CompositeRegister<uint64_t> over HazardCell: the
// constructor makes exactly one allocation (one block holds every
// level), and no scan or update allocates — the first scan on each
// reader slot and the first update of each component included. The
// constructor tables record how the count fell: before Y[0] reads,
// HazardCell nodes and collect buffers were made reusable, with flat
// Y[0] records, with one block per HazardCell, and with one block per
// register. A HazardCell write never allocates, even when every reader
// pins a different node.
//
// This binary replaces the global operator new/delete with a counter
// that forwards to malloc/free, so ASan and TSan still see every block.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
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
// included), indexed by C. Release builds; Debug builds added the two
// overlap guards per recursion level.
constexpr std::uint64_t kCtorAllocsBefore[] = {0, 0, 19, 35, 52, 70, 89};

// The same count once each Y[0] record became one flat object: a
// HazardCell node is one allocation, and Writer 0's record and the
// initial record keep seq and ss inline.
constexpr std::uint64_t kCtorAllocsFlatY0[] = {0, 0, 9, 14, 19, 24, 29};

// The same count once each HazardCell became one block (its hazard
// slots and its node slab) instead of a node plus a slot array.
constexpr std::uint64_t kCtorAllocsSlab[] = {0, 0, 7, 11, 15, 19, 23};

// The same count once the whole register became one block: every
// level's state, cells, buffers and (in Debug builds) overlap guards.
// Release and Debug builds alike.
constexpr std::uint64_t kCtorAllocsOneBlock[] = {0, 1, 1, 1, 1, 1, 1};

class AllocFreeTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocFreeTest, SteadyStateScansAndUpdatesDoNotAllocate) {
  const int c = GetParam();
  constexpr int kOps = 1000;

  const std::uint64_t before_ctor = allocs();
  CompositeRegister<std::uint64_t> reg(c, kReaders, 0);
  const std::uint64_t ctor = allocs() - before_ctor;

  // The caller's own vector is the caller's: size it before counting.
  std::vector<Item<std::uint64_t>> out(static_cast<std::size_t>(c));

  // No warm-up: the first scan on every reader slot and the first update
  // of every component find their buffers and nodes in the block.
  const std::uint64_t before_first = allocs();
  for (int j = 0; j < kReaders; ++j) reg.scan_items(j, out);
  const std::uint64_t first_scans = allocs() - before_first;
  for (int k = 0; k < c; ++k) reg.update(k, 1);
  const std::uint64_t first_updates = allocs() - before_first - first_scans;

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

  EXPECT_EQ(first_scans, 0u) << "allocations over the first scan on each of "
                             << kReaders << " slots, C=" << c;
  EXPECT_EQ(first_updates, 0u)
      << "allocations over the first update of each component, C=" << c;
  EXPECT_EQ(scans, 0u) << "allocations over " << kOps << " scans, C=" << c;
  EXPECT_EQ(updates, 0u) << "allocations over " << kOps << " updates, C="
                         << c;
  EXPECT_LE(ctor, kCtorAllocsBefore[c]) << "constructor allocations, C=" << c;
  EXPECT_LE(ctor, kCtorAllocsFlatY0[c])
      << "constructor allocations with flat Y[0] records, C=" << c;
  EXPECT_LE(ctor, kCtorAllocsSlab[c])
      << "constructor allocations with one block per HazardCell, C=" << c;
  EXPECT_EQ(ctor, kCtorAllocsOneBlock[c])
      << "constructor allocations with one block per register, C=" << c;

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

// Over storage its owner carved, the cell allocates nothing: its slots,
// slab and index arrays fit in footprint(readers) bytes.
TEST(HazardCellAllocTest, CallerStorageConstructorAllocatesNothing) {
  using Cell = registers::HazardCell<std::uint64_t>;
  const std::size_t bytes = Cell::footprint(kReaders);
  std::vector<std::byte> storage(bytes + 63);
  void* start = storage.data();
  std::size_t space = storage.size();
  ASSERT_NE(std::align(64, bytes, start, space), nullptr);

  const std::uint64_t before = allocs();
  {
    Cell cell(start, kReaders, 0);
    for (std::uint64_t v = 1; v <= 100; ++v) cell.write(v);
    EXPECT_EQ(cell.read(0), 100u);
    EXPECT_EQ(cell.node_count(), 2u * kReaders + 2);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

}  // namespace
}  // namespace compreg::core
