// Replays the paper's Figure 4 executions (and the remaining two
// branches of Reader statement 8) with the exact scripted schedules of
// lin::fig4_executions() on the deterministic simulator, and pins what
// each scan returns. The scripts and their per-step maps live beside
// the replay runner in lin/workload.cpp.
#include <gtest/gtest.h>

#include "lin/shrinking_checker.h"
#include "lin/wing_gong.h"
#include "lin/workload.h"

namespace compreg::lin {
namespace {

void expect_valid(const Fig4Replay& run) {
  const CheckResult sl = check_shrinking_lemma(run.history);
  EXPECT_TRUE(sl.ok) << sl.violation;
  const CheckResult wg = check_wing_gong(run.history);
  EXPECT_TRUE(wg.ok) << wg.violation;
}

// Figure 4(a): three 0-Writes overlap the scan's collect window; a full
// 0-Write (w^{+1} in the paper) lies completely inside [r:3, r:7], so
// the reader detects e.seq[1,j] = newseq and returns w^{+1}'s embedded
// snapshot.
TEST(Fig4Test, CaseA_ReaderAdoptsOverlappingWritersSnapshot) {
  const Fig4Replay run = replay_fig4(fig4_executions()[0]);
  // The reader returns w+1's snapshot: component 0 = w+1 itself (id 2),
  // component 1 = Writer 1's first write (id 1) — NOT the later id-2
  // 1-Write that is already in Y[1] when the reader resumes.
  ASSERT_EQ(run.scan.size(), 2u);
  EXPECT_EQ(run.scan[0].id, 2u);
  EXPECT_EQ(run.scan[0].val, 102u);
  EXPECT_EQ(run.scan[1].id, 1u);
  EXPECT_EQ(run.scan[1].val, 201u);
  expect_valid(run);
}

// Figure 4(b): Writer 0's statement 3 executes exactly twice inside
// [r:3, r:7] and the Z read of the middle write predates r:2, so the
// reader sees e.wc = a.wc (+) 2 and returns the middle write's
// embedded snapshot.
TEST(Fig4Test, CaseB_WriteCounterDetectsTwoInterveningWrites) {
  const Fig4Replay run = replay_fig4(fig4_executions()[1]);
  // Returns v+1's snapshot: component 0 = v+1 (id 2), component 1 =
  // Writer 1's write (id 1).
  ASSERT_EQ(run.scan.size(), 2u);
  EXPECT_EQ(run.scan[0].id, 2u);
  EXPECT_EQ(run.scan[0].val, 102u);
  EXPECT_EQ(run.scan[1].id, 1u);
  EXPECT_EQ(run.scan[1].val, 201u);
  expect_valid(run);
}

// Statement 8, third branch (paper Section 4.1 "third and final
// case"): no statement 3 between r:3 and r:5, so a.wc = c.wc and the
// reader returns its own first collect (a.item, b).
TEST(Fig4Test, CaseC_QuietFirstWindowReturnsOwnCollect) {
  const Fig4Replay run = replay_fig4(fig4_executions()[2]);
  ASSERT_EQ(run.scan.size(), 2u);
  EXPECT_EQ(run.scan[0].id, 1u);  // a.item = w1
  EXPECT_EQ(run.scan[0].val, 101u);
  EXPECT_EQ(run.scan[1].id, 1u);  // b = Writer 1's write
  EXPECT_EQ(run.scan[1].val, 201u);
  expect_valid(run);
}

// Statement 8, fourth branch: one statement 3 lands between r:3 and
// r:5 (a.wc != c.wc) but none between r:5 and r:7, so the reader
// returns its second collect (c.item, d).
TEST(Fig4Test, CaseD_QuietSecondWindowReturnsSecondCollect) {
  const Fig4Replay run = replay_fig4(fig4_executions()[3]);
  ASSERT_EQ(run.scan.size(), 2u);
  EXPECT_EQ(run.scan[0].id, 2u);  // c.item = w2 (stmt-3 value)
  EXPECT_EQ(run.scan[0].val, 102u);
  EXPECT_EQ(run.scan[1].id, 1u);  // d = Writer 1's write
  EXPECT_EQ(run.scan[1].val, 201u);
  expect_valid(run);
}

}  // namespace
}  // namespace compreg::lin
