// InlineArray: copies inside and past the inline budget, and the
// allocation contract - a copy between equal-length arrays never
// allocates. This binary replaces the global operator new/delete with a
// counter that forwards to malloc/free, so ASan and TSan still see
// every block.
#include "util/inline_array.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

// noinline: inlined into operator new[], GCC's malloc size check
// trips on the array-new overflow path (a size of SIZE_MAX).
[[gnu::noinline]] void* counted_alloc(std::size_t n) {
  // relaxed: a plain event counter read by the allocating thread.
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace compreg {
namespace {

// Four uint64_t inline; a fifth spills.
using Words = InlineArray<std::uint64_t, 4 * sizeof(std::uint64_t)>;

Words iota(std::size_t n, std::uint64_t first) {
  Words w(n, 0);
  for (std::size_t i = 0; i < n; ++i) w[i] = first + i;
  return w;
}

void expect_iota(const Words& w, std::size_t n, std::uint64_t first) {
  ASSERT_EQ(w.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(w[i], first + i) << i;
}

TEST(InlineArrayTest, BudgetIsInBytes) {
  EXPECT_EQ(Words::kInline, 4u);
  struct Big {
    char bytes[48];
  };
  EXPECT_EQ((InlineArray<Big, 32>::kInline), 0u);
  EXPECT_FALSE(Words().spilled());
  EXPECT_EQ(Words().size(), 0u);
}

TEST(InlineArrayTest, InlineWithinBudgetWithoutAllocating) {
  const std::uint64_t before = allocs();
  const Words w(4, 7);
  EXPECT_EQ(allocs(), before);
  EXPECT_FALSE(w.spilled());
  for (std::uint64_t v : w) EXPECT_EQ(v, 7u);
  const auto* base = reinterpret_cast<const char*>(&w);
  const auto* data = reinterpret_cast<const char*>(w.data());
  EXPECT_TRUE(data >= base && data < base + sizeof(w)) << "not inline";
}

TEST(InlineArrayTest, SpillsPastBudgetIntoOneBlock) {
  const std::uint64_t before = allocs();
  const Words w(5, 7);
  EXPECT_EQ(allocs(), before + 1);
  EXPECT_TRUE(w.spilled());
  for (std::uint64_t v : w) EXPECT_EQ(v, 7u);
}

TEST(InlineArrayTest, CopyConstructInlineAndSpilled) {
  for (std::size_t n : {0u, 3u, 4u, 5u, 9u}) {
    const Words src = iota(n, 10);
    const Words copy = src;  // NOLINT(performance-unnecessary-copy-initialization)
    expect_iota(copy, n, 10);
    EXPECT_EQ(copy.spilled(), n > Words::kInline);
    if (n > 0) {
      EXPECT_NE(copy.data(), src.data());
    }
  }
}

TEST(InlineArrayTest, EqualLengthAssignmentNeverAllocates) {
  for (std::size_t n : {2u, 4u, 5u, 9u}) {
    Words dst = iota(n, 0);
    const Words src = iota(n, 100);
    const std::uint64_t* storage = dst.data();
    const std::uint64_t before = allocs();
    dst = src;
    EXPECT_EQ(allocs(), before) << "n=" << n;
    EXPECT_EQ(dst.data(), storage) << "storage moved, n=" << n;
    expect_iota(dst, n, 100);
  }
}

TEST(InlineArrayTest, AssignmentAcrossLengthsAndTheBudget) {
  Words w = iota(3, 0);
  w = iota(9, 50);  // inline -> spilled
  expect_iota(w, 9, 50);
  EXPECT_TRUE(w.spilled());
  const Words longer = iota(12, 70);
  w = longer;  // spilled -> longer spilled
  expect_iota(w, 12, 70);
  const Words shorter = iota(2, 90);
  w = shorter;  // spilled -> inline
  expect_iota(w, 2, 90);
  EXPECT_FALSE(w.spilled());
  const Words& self = w;
  w = self;  // self-assignment keeps the elements
  expect_iota(w, 2, 90);
}

TEST(InlineArrayTest, MoveTakesSpilledBlockAndEmptiesSource) {
  Words src = iota(9, 5);
  const std::uint64_t* block = src.data();
  const std::uint64_t before = allocs();
  Words dst = std::move(src);
  EXPECT_EQ(allocs(), before);
  EXPECT_EQ(dst.data(), block);
  expect_iota(dst, 9, 5);
  EXPECT_EQ(src.size(), 0u);  // NOLINT(bugprone-use-after-move)

  Words small = iota(3, 1);
  Words moved = std::move(small);
  expect_iota(moved, 3, 1);
  EXPECT_FALSE(moved.spilled());
}

TEST(InlineArrayTest, NonTrivialElements) {
  using Strings = InlineArray<std::string, 2 * sizeof(std::string)>;
  Strings a(3, std::string(40, 'x'));  // spilled: 3 > 2
  Strings b(3, "y");
  b = a;
  for (const std::string& s : b) EXPECT_EQ(s, std::string(40, 'x'));
  Strings c(2, "z");
  c = Strings(2, "w");
  for (const std::string& s : c) EXPECT_EQ(s, "w");
}

}  // namespace
}  // namespace compreg
