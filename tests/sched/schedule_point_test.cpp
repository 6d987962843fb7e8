// sched::point's native fast path must not swallow the two native-thread
// behaviors it skips over when idle: stress-mode yields and observer
// reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/composite_register.h"
#include "registers/word_register.h"
#include "sched/access.h"
#include "sched/policy.h"
#include "sched/schedule_point.h"
#include "sched/sim_scheduler.h"
#include "util/rng.h"

namespace compreg::sched {
namespace {

// The next value the thread's stress generator would draw, without
// advancing it.
std::uint64_t peek_stress_rng() {
  Rng copy = thread_context().stress_rng;
  return copy();
}

TEST(SchedulePointTest, StressModeDrawsAtEveryNativePoint) {
  registers::WordRegister<int> reg(0);
  StressInterleaving stress(1000, /*seed=*/42);
  const std::uint64_t before = peek_stress_rng();
  (void)reg.read();
  EXPECT_NE(peek_stress_rng(), before)
      << "a stressed native read took no draw from stress_rng";
}

TEST(SchedulePointTest, UnstressedNativePointLeavesStressRngAlone) {
  registers::WordRegister<int> reg(0);
  const std::uint64_t before = peek_stress_rng();
  (void)reg.read();
  reg.write(1);
  EXPECT_EQ(peek_stress_rng(), before);
}

struct Recorded {
  std::uint64_t cell;
  AccessKind kind;
  int slot;
  int proc;

  bool same_access(const Recorded& o) const {
    return cell == o.cell && kind == o.kind && slot == o.slot;
  }
};

class Recorder final : public AccessObserver {
 public:
  void on_access(const Access& access, int proc,
                 std::uint64_t /*sched_pos*/) override {
    seen.push_back({access.decl.cell, access.kind, access.slot, proc});
  }
  std::vector<Recorded> seen;
};

// One C=4 scan on a native thread with an observer installed reports the
// same labeled accesses, in the same order, as the same scan run as a
// simulator process: TR(4) = 43 of them.
TEST(SchedulePointTest, ObservedNativeScanMatchesSimulator) {
  constexpr int kComponents = 4;
  constexpr int kReaders = 2;
  core::CompositeRegister<std::uint64_t> reg(kComponents, kReaders, 0);
  std::vector<core::Item<std::uint64_t>> out;

  Recorder native;
  {
    ScopedAccessObserver install(&native);
    reg.scan_items(0, out);
  }

  Recorder simulated;
  {
    ScopedAccessObserver install(&simulated);
    RoundRobinPolicy policy;
    SimScheduler sim(policy);
    sim.spawn([&] { reg.scan_items(0, out); });
    sim.run();
  }

  const std::uint64_t cost =
      core::CompositeRegister<std::uint64_t>::read_cost(kComponents,
                                                        kReaders);
  ASSERT_EQ(native.seen.size(), cost);
  ASSERT_EQ(simulated.seen.size(), cost);
  for (std::size_t i = 0; i < cost; ++i) {
    EXPECT_TRUE(native.seen[i].same_access(simulated.seen[i]))
        << "access " << i << " differs";
    EXPECT_EQ(native.seen[i].proc, -1);
    EXPECT_EQ(simulated.seen[i].proc, 0);
  }
}

}  // namespace
}  // namespace compreg::sched
