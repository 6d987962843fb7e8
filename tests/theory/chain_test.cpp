// Layer-by-layer verification of the theoretical register chain on the
// deterministic simulator: each construction's guarantee is tested
// against adversarial interleavings at safe-bit granularity.
#include "theory/chain.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "lin/register_checker.h"
#include "sched/exhaustive.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"

namespace compreg::theory {
namespace {

TEST(SafeBitTest, SequentialReadsSeeWrites) {
  SimSafeBit bit(false);
  EXPECT_FALSE(bit.read());
  bit.write(true);
  EXPECT_TRUE(bit.read());
  bit.write(false);
  EXPECT_FALSE(bit.read());
}

// A safe bit read NOT overlapping any write returns the last value;
// overlapping reads may return garbage (we only check no crash and a
// boolean comes back).
TEST(SafeBitTest, OverlapReturnsSomeBit) {
  sched::RoundRobinPolicy policy;
  sched::SimScheduler sim(policy);
  SimSafeBit bit(false);
  sim.spawn([&] {
    for (int i = 0; i < 50; ++i) bit.write(i % 2 == 0);
  });
  sim.spawn([&] {
    for (int i = 0; i < 50; ++i) (void)bit.read();
  });
  sim.run();  // must terminate without assertion failures
}

// The point of Lamport's regular-bit construction: rewriting the SAME
// value performs no physical safe-bit write, so it opens no garbage
// window. A raw safe bit does not have this property; the regular bit
// must.
TEST(RegularBitTest, RewritingSameValueIsHarmless) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sched::RandomPolicy policy(seed);
    sched::SimScheduler sim(policy);
    RegularBit bit(true);
    bool failed = false;
    sim.spawn([&] {
      for (int i = 0; i < 20; ++i) bit.write(true);  // all no-ops
    });
    sim.spawn([&] {
      for (int i = 0; i < 20; ++i) {
        if (!bit.read()) failed = true;
      }
    });
    sim.run();
    EXPECT_FALSE(failed) << "seed " << seed;
  }
}

TEST(RegularBitTest, RawSafeBitLacksThatProperty) {
  // Contrast case: the raw safe bit CAN return garbage on a same-value
  // rewrite — this is why the construction exists. (The adversary must
  // find the window in at least one seed.)
  bool garbage_seen = false;
  for (std::uint64_t seed = 1; seed <= 40 && !garbage_seen; ++seed) {
    sched::RandomPolicy policy(seed);
    sched::SimScheduler sim(policy);
    SimSafeBit bit(true);
    sim.spawn([&] {
      for (int i = 0; i < 20; ++i) bit.write(true);
    });
    sim.spawn([&] {
      for (int i = 0; i < 20; ++i) {
        if (!bit.read()) garbage_seen = true;
      }
    });
    sim.run();
  }
  EXPECT_TRUE(garbage_seen);
}

// Regularity, exhaustively on a single 0->1 transition: a read that
// completes before the write begins returns 0; a read that starts
// after the write completes returns 1; overlapping reads may return
// either (unchecked). Note regularity permits new-old inversions
// between overlapping reads, so we deliberately do NOT assert
// monotonicity.
TEST(RegularBitTest, ExhaustiveSingleTransitionRegularity) {
  sched::oracle::Scenario scenario =
      [](sched::SimScheduler& sim) -> std::function<void()> {
    auto bit = std::make_shared<RegularBit>(false);
    auto write_done = std::make_shared<bool>(false);
    auto failed = std::make_shared<bool>(false);
    sim.spawn([bit, write_done] {
      bit->write(true);
      *write_done = true;  // plain flag: sim execution is serialized
    });
    sim.spawn([bit, write_done, failed] {
      for (int i = 0; i < 3; ++i) {
        const bool done_before = *write_done;
        const bool v = bit->read();
        if (done_before && !v) *failed = true;
      }
    });
    return [failed] { EXPECT_FALSE(*failed); };
  };
  const sched::oracle::ExploreStats stats = sched::oracle::explore(scenario, 10, 100000);
  EXPECT_TRUE(stats.exhausted);
}

TEST(SafeMValuedTest, SequentialSemantics) {
  SafeMValued reg(16, 3);
  EXPECT_EQ(reg.read(), 3);
  for (int v : {0, 15, 7, 8, 1}) {
    reg.write(v);
    EXPECT_EQ(reg.read(), v);
  }
}

TEST(SafeMValuedTest, WidthIsLogarithmic) {
  EXPECT_EQ(SafeMValued(2, 0).width(), 1);
  EXPECT_EQ(SafeMValued(4, 0).width(), 2);
  EXPECT_EQ(SafeMValued(5, 0).width(), 3);
  EXPECT_EQ(SafeMValued(256, 0).width(), 8);
}

TEST(SafeMValuedTest, QuiescentReadsCorrectUnderSchedules) {
  // Reads that do not overlap a write return the last written value;
  // use the plain-flag trick (sim execution is serialized).
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    sched::RandomPolicy policy(seed);
    sched::SimScheduler sim(policy);
    SafeMValued reg(8, 0);
    bool writer_idle = true;  // toggled around each write
    int last_written = 0;
    bool failed = false;
    sim.spawn([&] {
      for (int v : {5, 2, 7}) {
        writer_idle = false;
        reg.write(v);
        last_written = v;
        writer_idle = true;
      }
    });
    sim.spawn([&] {
      for (int i = 0; i < 5; ++i) {
        const bool idle_before = writer_idle;
        const int expect = last_written;
        const int v = reg.read();
        // Only assert when the writer was idle for the whole read.
        if (idle_before && writer_idle && expect == last_written &&
            v != expect) {
          failed = true;
        }
      }
    });
    sim.run();
    EXPECT_FALSE(failed) << "seed " << seed;
  }
}

TEST(RegularMValuedTest, SequentialSemantics) {
  RegularMValued reg(5, 2);
  EXPECT_EQ(reg.read(), 2);
  for (int v : {0, 4, 3, 1, 2, 0}) {
    reg.write(v);
    EXPECT_EQ(reg.read(), v);
  }
}

TEST(RegularMValuedTest, OverlappingReadReturnsOldOrNew) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    sched::RandomPolicy policy(seed);
    sched::SimScheduler sim(policy);
    RegularMValued reg(4, 1);
    bool bad = false;
    sim.spawn([&] { reg.write(3); });
    sim.spawn([&] {
      const int v = reg.read();
      if (v != 1 && v != 3) bad = true;
    });
    sim.run();
    EXPECT_FALSE(bad) << "seed " << seed;
  }
}

TEST(RegularMValuedTest, ReaderNeverSeesImpossibleValue) {
  // Writer runs through a known sequence; a concurrent reader may see
  // only values from that sequence (regularity, not atomicity: it can
  // go backwards between non-overlapping writes? no — but it can see
  // old-or-new per read).
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    sched::RandomPolicy policy(seed);
    sched::SimScheduler sim(policy);
    RegularMValued reg(6, 0);
    bool bad = false;
    sim.spawn([&] {
      for (int v : {2, 5, 1}) reg.write(v);
    });
    sim.spawn([&] {
      for (int i = 0; i < 4; ++i) {
        const int v = reg.read();
        if (v != 0 && v != 2 && v != 5 && v != 1) bad = true;
      }
    });
    sim.run();
    EXPECT_FALSE(bad) << "seed " << seed;
  }
}

TEST(AtomicSwsrTest, SequentialSemantics) {
  AtomicSwsr<int> reg(9);
  EXPECT_EQ(reg.read(), 9);
  for (int i = 0; i < 20; ++i) {
    reg.write(i);
    EXPECT_EQ(reg.read(), i);
  }
}

TEST(AtomicSwsrTest, NoNewOldInversionUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    sched::RandomPolicy policy(seed);
    sched::SimScheduler sim(policy);
    AtomicSwsr<int> reg(0);
    bool bad = false;
    sim.spawn([&] {
      for (int i = 1; i <= 10; ++i) reg.write(i);
    });
    sim.spawn([&] {
      int last = 0;
      for (int i = 0; i < 10; ++i) {
        const int v = reg.read();
        if (v < last) bad = true;  // single reader: monotone = atomic
        last = v;
      }
    });
    sim.run();
    EXPECT_FALSE(bad) << "seed " << seed;
  }
}

TEST(RegularMrswNoReportsTest, SequentialSemantics) {
  RegularMrswNoReports<int> reg(3, 4);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(reg.read(j), 4);
  reg.write(5);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(reg.read(j), 5);
}

TEST(RegularMrswNoReportsTest, RegularPerReader) {
  // Regularity (per reader, unique values): checked with the
  // regularity oracle under random schedules.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    sched::RandomPolicy policy(seed * 13);
    sched::SimScheduler sim(policy);
    RegularMrswNoReports<int> reg(2, 0);
    lin::RegisterHistory hist;
    std::atomic<std::uint64_t> clock{1};
    sim.spawn([&] {
      for (int i = 1; i <= 5; ++i) {
        lin::RegWrite w;
        w.id = static_cast<std::uint64_t>(i);
        w.start = clock.fetch_add(1);
        reg.write(i);
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
          r.id = static_cast<std::uint64_t>(reg.read(j));
          r.end = clock.fetch_add(1);
          reads[static_cast<std::size_t>(j)].push_back(r);
        }
      });
    }
    sim.run();
    for (auto& rv : reads) {
      hist.reads.insert(hist.reads.end(), rv.begin(), rv.end());
    }
    const lin::CheckResult reg_ok = lin::check_register_regularity(hist);
    EXPECT_TRUE(reg_ok.ok) << "seed " << seed << ": " << reg_ok.violation;
  }
}

// The headline negative result: WITHOUT reader reports, a concrete
// schedule produces a cross-reader new-old inversion — the register is
// regular but provably not atomic. (The writer writes copy 0, pauses;
// reader 0 sees the new value and finishes; reader 1 then reads its
// still-old copy.)
TEST(RegularMrswNoReportsTest, CrossReaderInversionExists) {
  // Point budget: a SimRegularRegister write takes 2 points (begin,
  // commit), a read 1 point. The writer's MRSW write = 2 copies = 4
  // points; each reader's read = 1 point.
  sched::ScriptPolicy policy({
      0, 0,  // writer: copy 0 fully written (new value visible there)
      1,     // reader 0: reads copy 0 -> NEW, completes
      2,     // reader 1: reads copy 1 -> OLD (starts after reader 0)
      0, 0,  // writer: finally writes copy 1
  });
  sched::SimScheduler sim(policy);
  RegularMrswNoReports<int> reg(2, 0);
  int r0 = -1, r1 = -1;
  sim.spawn([&] { reg.write(7); });
  sim.spawn([&] { r0 = reg.read(0); });
  sim.spawn([&] { r1 = reg.read(1); });
  sim.run();
  EXPECT_EQ(r0, 7);  // the earlier read returned the NEW value
  EXPECT_EQ(r1, 0);  // the later read returned the OLD value: inversion
  // The same schedule against the full construction (with reports)
  // cannot invert — verified structurally by AtomicMrswTest below and
  // by the register checker in AtomicUnderRandomSchedules.
}

TEST(AtomicMrswTest, SequentialSemantics) {
  TheoryCell<int> reg(3, 5);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(reg.read(j), 5);
  reg.write(6);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(reg.read(j), 6);
}

// Full MRSW atomicity under random schedules, verified with the
// register checker using the construction's tags as write ids.
TEST(AtomicMrswTest, AtomicUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sched::RandomPolicy policy(seed * 31);
    sched::SimScheduler sim(policy);
    TheoryCell<int> reg(2, 0);
    lin::RegisterHistory hist;
    std::atomic<std::uint64_t> clock{1};
    sim.spawn([&] {
      for (int i = 1; i <= 6; ++i) {
        lin::RegWrite w;
        w.id = static_cast<std::uint64_t>(i);
        w.start = clock.fetch_add(1);
        reg.write(i * 10);
        w.end = clock.fetch_add(1);
        hist.writes.push_back(w);
      }
    });
    std::array<std::vector<lin::RegRead>, 2> reads;
    for (int j = 0; j < 2; ++j) {
      sim.spawn([&, j] {
        for (int i = 0; i < 6; ++i) {
          lin::RegRead r;
          r.start = clock.fetch_add(1);
          r.id = reg.read_tagged(j).tag;
          r.end = clock.fetch_add(1);
          reads[static_cast<std::size_t>(j)].push_back(r);
        }
      });
    }
    sim.run();
    for (auto& rv : reads) {
      hist.reads.insert(hist.reads.end(), rv.begin(), rv.end());
    }
    const lin::CheckResult result = lin::check_register_atomicity(hist);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
  }
}

}  // namespace
}  // namespace compreg::theory
