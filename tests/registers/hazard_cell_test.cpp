#include "registers/hazard_cell.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "lin/register_checker.h"

namespace compreg::registers {
namespace {

TEST(HazardCellTest, InitialValue) {
  HazardCell<int> cell(3, 17);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(cell.read(j), 17);
}

TEST(HazardCellTest, SequentialSemantics) {
  HazardCell<int> cell(2, 0);
  for (int i = 1; i <= 1000; ++i) {
    cell.write(i);
    EXPECT_EQ(cell.read(i % 2), i);
  }
}

TEST(HazardCellTest, CountsOneOpPerAccess) {
  HazardCell<int> cell(1, 0);
  OpWindow win;
  cell.write(1);
  (void)cell.read(0);
  EXPECT_EQ(win.delta().reg_writes, 1u);
  EXPECT_EQ(win.delta().reg_reads, 1u);
}

TEST(HazardCellTest, LargePayloadNotTorn) {
  struct Big {
    std::array<std::uint64_t, 32> words;
  };
  HazardCell<Big> cell(2, Big{});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 50000; ++i) {
      Big b;
      b.words.fill(i);
      cell.write(b);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int j = 0; j < 2; ++j) {
    readers.emplace_back([&, j] {
      while (!stop.load()) {
        const Big b = cell.read(j);
        for (std::uint64_t w : b.words) ASSERT_EQ(w, b.words[0]);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
}

TEST(HazardCellTest, AtomicityUnderStress) {
  struct Val {
    std::uint64_t id;
  };
  constexpr int kReaders = 3;
  HazardCell<Val> cell(kReaders, Val{0});
  std::atomic<std::uint64_t> clock{1};
  std::vector<lin::RegWrite> writes;
  std::array<std::vector<lin::RegRead>, kReaders> reads;
  const int kOps = 20000;
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= kOps; ++i) {
      lin::RegWrite w;
      w.id = i;
      w.start = clock.fetch_add(1);
      cell.write(Val{i});
      w.end = clock.fetch_add(1);
      writes.push_back(w);
    }
  });
  std::vector<std::thread> rthreads;
  for (int j = 0; j < kReaders; ++j) {
    rthreads.emplace_back([&, j] {
      for (int i = 0; i < kOps / 2; ++i) {
        lin::RegRead r;
        r.start = clock.fetch_add(1);
        r.id = cell.read(j).id;
        r.end = clock.fetch_add(1);
        reads[static_cast<std::size_t>(j)].push_back(r);
      }
    });
  }
  writer.join();
  for (auto& t : rthreads) t.join();
  lin::RegisterHistory hist;
  hist.writes = std::move(writes);
  for (auto& rv : reads) {
    hist.reads.insert(hist.reads.end(), rv.begin(), rv.end());
  }
  const lin::CheckResult result = lin::check_register_atomicity(hist);
  EXPECT_TRUE(result.ok) << result.violation;
}

// Reclamation boundedness: idle readers pin nothing, so the pool stops
// at the slab's 2*readers+2 nodes and every scan frees all
// 2*readers+1 retired ones.
TEST(HazardCellTest, ManyWritesWithIdleReaders) {
  constexpr int kReaders = 4;
  constexpr std::uint64_t kWrites = 100000;
  HazardCell<std::vector<int>> cell(kReaders, std::vector<int>(100, 7));
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    cell.write(std::vector<int>(100, static_cast<int>(i)));
  }
  EXPECT_EQ(cell.node_count(), 2u * kReaders + 2);
  EXPECT_LE(cell.hazard_scans(), kWrites / (2 * kReaders + 1) + 1);
  const std::vector<int> v = cell.read(0);
  EXPECT_EQ(v[0], 99999);
  EXPECT_EQ(cell.node_count(), 2u * kReaders + 2);
}

// The slab fills first: the first 2*readers+1 writes each build a node
// and none scans; the next write finds the slab full and scans once.
TEST(HazardCellTest, IdleReadersFillTheSlabBeforeTheFirstScan) {
  constexpr int kReaders = 4;
  constexpr std::uint64_t kPool = 2 * kReaders + 2;
  HazardCell<std::vector<int>> cell(kReaders, std::vector<int>(8, 0));
  for (std::uint64_t i = 1; i < kPool; ++i) {
    cell.write(std::vector<int>(8, static_cast<int>(i)));
    EXPECT_EQ(cell.node_count(), i + 1);
    EXPECT_EQ(cell.hazard_scans(), 0u);
  }
  cell.write(std::vector<int>(8, static_cast<int>(kPool)));
  EXPECT_EQ(cell.hazard_scans(), 1u);
  for (int i = static_cast<int>(kPool) + 1; i <= 1000; ++i) {
    cell.write(std::vector<int>(8, i));
  }
  EXPECT_EQ(cell.node_count(), kPool);
  EXPECT_EQ(cell.read(3), std::vector<int>(8, 1000));
}

// The batched scan over kept pins: only a write that finds the free
// stack empty and the slab full scans the hazard slots, and a scan
// keeps only the retired nodes some slot holds. With the slab full and
// the idle readers' pins all on one node, each scan frees 2*readers of
// the 2*readers+1 retired nodes, so N writes make at most
// ceil(N / (2*readers)) + 1 scans.
TEST(HazardCellTest, IdleReadersScanOncePerTwiceReadersWritesWhenPinsAgree) {
  constexpr int kReaders = 3;
  constexpr std::uint64_t kPool = 2 * kReaders + 2;
  HazardCell<int> cell(kReaders, 0);
  auto address = [](const int& v) { return &v; };
  // Pin a different node in every slot, then fill the slab.
  int next = 1;
  for (int j = 0; j < kReaders; ++j) {
    (void)cell.read(j, address);
    cell.write(next++);
  }
  while (cell.node_count() < kPool) cell.write(next++);
  ASSERT_EQ(cell.hazard_scans(), 0u);
  // Every reader reads once more and goes idle: all three pins move to
  // the node current now, and they keep it from recycling.
  const int* shared = cell.read(0, address);
  for (int j = 1; j < kReaders; ++j) ASSERT_EQ(cell.read(j, address), shared);

  constexpr std::uint64_t kWrites = 1000;
  const std::uint64_t before = cell.hazard_scans();
  for (std::uint64_t i = 0; i < kWrites; ++i) cell.write(next++);
  const std::uint64_t scans = cell.hazard_scans() - before;
  EXPECT_LE(scans, (kWrites + 2 * kReaders - 1) / (2 * kReaders) + 1)
      << "the writer scans more often than its free stack runs dry";
  EXPECT_EQ(cell.node_count(), kPool);
  // Reading *shared outside a read is legal only in a single-threaded
  // test: the pins are what keep the writer off it.
  EXPECT_EQ(*shared, next - 1 - static_cast<int>(kWrites))
      << "pinned node recycled";
  EXPECT_EQ(cell.read(0), next - 1);
}

// The scan bound whatever the readers pin: every slot pins a different
// retired node (the nested holds below), so a scan on the full slab
// keeps `readers` of its 2*readers+1 retired nodes and frees
// readers+1. N writes then make at most ceil(N / (readers+1)) + 1
// scans, the pool is exactly 2*readers+2 nodes, and no held node is
// recycled.
TEST(HazardCellTest, DistinctPinsScanOncePerReadersPlusOneWrites) {
  constexpr int kReaders = 3;
  constexpr std::uint64_t kWrites = 1000;
  HazardCell<std::vector<int>> cell(kReaders, std::vector<int>(16, 0));
  int next = 1;
  auto write_some = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i, ++next) {
      cell.write(std::vector<int>(16, next));
    }
  };
  std::uint64_t scans = 0;
  // A visitor that writes is legal only in a test: the cell runs `f`
  // inside the read, while the reader's hazard slot pins the node.
  std::function<void(int)> hold = [&](int j) {
    cell.read(j, [&](const std::vector<int>& held) {
      const std::vector<int> copy = held;
      write_some(1);
      if (j + 1 < kReaders) {
        hold(j + 1);
      } else {
        const std::uint64_t before = cell.hazard_scans();
        write_some(kWrites);
        scans = cell.hazard_scans() - before;
        EXPECT_EQ(cell.node_count(), 2u * kReaders + 2);
      }
      EXPECT_EQ(held, copy) << "node held by reader " << j << " recycled";
      return 0;
    });
  };
  hold(0);
  EXPECT_GE(scans, 1u);
  EXPECT_LE(scans, (kWrites + kReaders) / (kReaders + 1) + 1)
      << "a scan freed fewer than readers+1 nodes";
  EXPECT_EQ(cell.read(0), std::vector<int>(16, next - 1));
}

// Node recycling under concurrency: the writer copy-assigns each new
// vector (all words equal, length tied to the word) into a recycled
// node while three readers read it both ways, read(j) and read(j, f),
// keeping their pins across reads. A node recycled under a reader would
// show up as a mixed, mis-sized, changing or backwards value.
TEST(HazardCellTest, RecycledVectorsNeverTornOrStale) {
  constexpr int kReaders = 3;
  constexpr std::uint64_t kWrites = 50000;
  auto payload = [](std::uint64_t i) {
    return std::vector<std::uint64_t>(64 + i % 9, i);
  };
  auto intact = [](const std::vector<std::uint64_t>& v) {
    if (v.size() != 64 + v[0] % 9) return false;
    for (std::uint64_t w : v) {
      if (w != v[0]) return false;
    }
    return true;
  };
  HazardCell<std::vector<std::uint64_t>> cell(kReaders, payload(0));
  std::atomic<int> ready{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (ready.load() < kReaders) std::this_thread::yield();
    for (std::uint64_t i = 1; i <= kWrites; ++i) cell.write(payload(i));
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int j = 0; j < kReaders; ++j) {
    readers.emplace_back([&, j] {
      ready.fetch_add(1);
      std::uint64_t last = 0;
      for (std::uint64_t n = 0; !stop.load(); ++n) {
        std::uint64_t seen;
        if (n % 2 == 0) {
          const std::vector<std::uint64_t> v = cell.read(j);
          ASSERT_TRUE(intact(v)) << "read(j) saw a torn vector";
          seen = v[0];
        } else {
          // The visitor re-checks its node a few times to hold the
          // protection long enough for a wrong recycle to land.
          auto check = [&](const std::vector<std::uint64_t>& v) {
            const std::uint64_t w = v[0];
            bool same = true;
            for (int k = 0; k < 4; ++k) {
              same = same && intact(v) && v[0] == w;
            }
            return std::pair<bool, std::uint64_t>{same, w};
          };
          const auto [ok, first] = cell.read(j, check);
          ASSERT_TRUE(ok) << "read(j, f) saw a torn vector";
          seen = first;
        }
        ASSERT_GE(seen, last) << "reader " << j << " went backwards";
        last = seen;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  // The slab fills first, whatever the readers do.
  EXPECT_EQ(cell.node_count(), 2u * kReaders + 2);
}

// Pool bound, deterministically: every reader parks inside a visitor on
// a different node while the writer keeps writing. The writer must
// stop building nodes at 2*readers+2 and must never recycle a node a
// reader still holds.
TEST(HazardCellTest, PoolNeverExceedsTwiceReadersPlusTwo) {
  constexpr int kReaders = 3;
  HazardCell<std::vector<int>> cell(kReaders, std::vector<int>(16, 0));
  int next = 1;
  auto write_some = [&](int n) {
    for (int i = 0; i < n; ++i, ++next) {
      cell.write(std::vector<int>(16, next));
    }
  };
  // Reader j holds the node current when it entered, then the writer
  // moves on; the visitors nest so all three holds overlap. (A visitor
  // that writes is legal only in a test: the cell runs `f` inside the
  // read, while the reader's hazard slot pins the node.)
  std::function<void(int)> hold = [&](int j) {
    cell.read(j, [&](const std::vector<int>& held) {
      const std::vector<int> copy = held;
      write_some(1);
      if (j + 1 < kReaders) {
        hold(j + 1);
      } else {
        write_some(100);
        EXPECT_EQ(cell.node_count(), 2u * kReaders + 2);
      }
      EXPECT_EQ(held, copy) << "node held by reader " << j << " recycled";
      return 0;
    });
  };
  hold(0);
  write_some(100);
  EXPECT_EQ(cell.node_count(), 2u * kReaders + 2);
  EXPECT_EQ(cell.read(0), std::vector<int>(16, next - 1));
}

TEST(HazardCellTest, ReaderSlotsAreIndependent) {
  HazardCell<int> cell(8, 0);
  cell.write(5);
  std::vector<std::thread> readers;
  for (int j = 0; j < 8; ++j) {
    readers.emplace_back([&, j] {
      for (int i = 0; i < 10000; ++i) ASSERT_EQ(cell.read(j), 5);
    });
  }
  for (auto& t : readers) t.join();
}

}  // namespace
}  // namespace compreg::registers
