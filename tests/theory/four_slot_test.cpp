#include "theory/four_slot.h"

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

template <typename Reg>
lin::RegisterHistory drive(Reg& reg, std::uint64_t seed, int ops) {
  sched::RandomPolicy policy(seed);
  sched::SimScheduler sim(policy);
  lin::RegisterHistory hist;
  std::atomic<std::uint64_t> clock{1};
  sim.spawn([&] {
    for (int i = 1; i <= ops; ++i) {
      lin::RegWrite w;
      w.id = static_cast<std::uint64_t>(i);
      w.start = clock.fetch_add(1);
      reg.write(i);
      w.end = clock.fetch_add(1);
      hist.writes.push_back(w);
    }
  });
  sim.spawn([&] {
    for (int i = 0; i < ops; ++i) {
      lin::RegRead r;
      r.start = clock.fetch_add(1);
      r.id = static_cast<std::uint64_t>(reg.read());
      r.end = clock.fetch_add(1);
      hist.reads.push_back(r);
    }
  });
  sim.run();
  return hist;
}

TEST(SimFourSlotTest, SequentialSemantics) {
  SimFourSlot<int> reg(9);
  EXPECT_EQ(reg.read(), 9);
  for (int i = 0; i < 50; ++i) {
    reg.write(i);
    EXPECT_EQ(reg.read(), i);
    EXPECT_EQ(reg.read(), i);  // re-reads stable
  }
}

// With atomic control bits: Simpson's classical result — fully atomic.
// The in-register slot-collision CHECK also runs in every schedule.
TEST(SimFourSlotTest, AtomicBitsGiveAtomicity) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SimFourSlot<int, SimAtomicBit> reg(0);
    const lin::RegisterHistory hist = drive(reg, seed * 11, 8);
    const lin::CheckResult result = lin::check_register_atomicity(hist);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
  }
}

// With regular control bits the mechanism still guarantees slot
// exclusion and REGULARITY...
TEST(SimFourSlotTest, RegularBitsGiveRegularity) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SimFourSlot<int, RegularBit> reg(0);
    const lin::RegisterHistory hist = drive(reg, seed * 11, 8);
    const lin::CheckResult result = lin::check_register_regularity(hist);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
  }
}

// ...but NOT atomicity: the verification harness discovered concrete
// schedules with cross-read new-old inversions (a known fine point of
// the four-slot mechanism: atomicity needs atomic control bits). This
// test pins the discovery — if it ever stops failing, either the
// construction changed or the oracle weakened.
TEST(SimFourSlotTest, RegularBitsAdmitNewOldInversion) {
  bool inversion_found = false;
  for (std::uint64_t seed = 1; seed <= 120 && !inversion_found; ++seed) {
    SimFourSlot<int, RegularBit> reg(0);
    const lin::RegisterHistory hist = drive(reg, seed * 11, 8);
    if (!lin::check_register_atomicity(hist).ok) inversion_found = true;
  }
  EXPECT_TRUE(inversion_found)
      << "expected some schedule to exhibit the regular-control-bit "
         "new-old inversion";
}

// Bounded-exhaustive over the atomic-bit variant: EVERY interleaving of
// the first 10 primitive accesses of (2 writes || 2 reads).
TEST(SimFourSlotTest, ExhaustiveMicroAtomicBits) {
  std::uint64_t violations = 0;
  sched::oracle::Scenario scenario =
      [&](sched::SimScheduler& sim) -> std::function<void()> {
    auto reg = std::make_shared<SimFourSlot<int, SimAtomicBit>>(0);
    auto hist = std::make_shared<lin::RegisterHistory>();
    auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
    sim.spawn([reg, hist, clock] {
      for (int i = 1; i <= 2; ++i) {
        lin::RegWrite w;
        w.id = static_cast<std::uint64_t>(i);
        w.start = clock->fetch_add(1);
        reg->write(i);
        w.end = clock->fetch_add(1);
        hist->writes.push_back(w);
      }
    });
    sim.spawn([reg, hist, clock] {
      for (int i = 0; i < 2; ++i) {
        lin::RegRead r;
        r.start = clock->fetch_add(1);
        r.id = static_cast<std::uint64_t>(reg->read());
        r.end = clock->fetch_add(1);
        hist->reads.push_back(r);
      }
    });
    return [hist, reg, &violations] {
      if (!lin::check_register_atomicity(*hist).ok) ++violations;
    };
  };
  const sched::oracle::ExploreStats stats =
      sched::oracle::explore(scenario, /*max_depth=*/10, /*max_schedules=*/200000);
  EXPECT_EQ(violations, 0u);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_GT(stats.schedules, 100u);
}

// The deepest stack: MRSW built over the four-slot SWSR layer instead
// of the unbounded-sequence one — atomicity must survive the swap.
TEST(SimFourSlotTest, MrswOverFourSlotIsAtomic) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sched::RandomPolicy policy(seed * 17);
    sched::SimScheduler sim(policy);
    registers::FullInfoCell<int, FourSlotAtomic> reg(2, 0);
    lin::RegisterHistory hist;
    std::atomic<std::uint64_t> clock{1};
    sim.spawn([&] {
      for (int i = 1; i <= 5; ++i) {
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
        for (int i = 0; i < 5; ++i) {
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
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
  }
}

// Large payloads: slot exclusion means no torn reads (either bit type;
// use the weaker one).
TEST(SimFourSlotTest, LargePayloadNeverTorn) {
  struct Big {
    std::array<int, 8> words{};
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sched::RandomPolicy policy(seed * 3);
    sched::SimScheduler sim(policy);
    SimFourSlot<Big, RegularBit> reg(Big{});
    bool torn = false;
    sim.spawn([&] {
      for (int i = 1; i <= 6; ++i) {
        Big b;
        b.words.fill(i);
        reg.write(b);
      }
    });
    sim.spawn([&] {
      for (int i = 0; i < 6; ++i) {
        const Big b = reg.read();
        for (int w : b.words) {
          if (w != b.words[0]) torn = true;
        }
      }
    });
    sim.run();
    EXPECT_FALSE(torn) << "seed " << seed;
  }
}

}  // namespace
}  // namespace compreg::theory
