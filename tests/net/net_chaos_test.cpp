// End-to-end chaos verification of the networked substrate: the full
// composite register built over NetCell (every base register an ABD
// quorum-replicated register on one SimNet), driven by the standard
// simulator workload under randomized schedules and network fault
// plans, checked with the crash-aware Shrinking Lemma, the witness
// builder, and the protocol-conformance analyzer.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "analysis/race.h"
#include "core/composite_register.h"
#include "lin/dump.h"
#include "lin/shrinking_checker.h"
#include "lin/stats.h"
#include "lin/witness.h"
#include "lin/workload.h"
#include "net/replicated_register.h"
#include "sched/access.h"
#include "sched/policy.h"
#include "util/rng.h"

namespace compreg::net {
namespace {

using NetComposite =
    core::CompositeRegister<std::uint64_t, NetCell, NetCell>;

struct SweepResult {
  lin::History history;
  NetStats stats;
  std::uint64_t pending = 0;  // messages still queued at teardown
  std::size_t durability_findings = 0;
};

// One simulated execution: C writers + R readers over a composite
// register whose cells live on a fresh fabric under `net_plan`.
SweepResult run_once(int components, int readers, int ops,
                     std::uint64_t seed, const NetFaultPlan& net_plan,
                     int f = 1) {
  NetConfig cfg;
  cfg.f = f;
  ScopedNetFabric fab(cfg, net_plan, seed ^ 0x51b2e75eedull);
  NetComposite snap(components, readers, 0);
  sched::RandomPolicy policy(seed);
  lin::WorkloadConfig wl;
  wl.writes_per_writer = ops;
  wl.scans_per_reader = ops;
  SweepResult out;
  out.history = lin::run_sim_workload(snap, policy, wl);
  out.stats = fab.net().stats();
  out.pending = fab.net().pending();
  out.durability_findings = fab.net().durable().report().findings.size();
  return out;
}

// Satellite: the transport's conservation law and client-layer bounds.
// Every enqueued message (sends that survived the loss coin, plus
// duplicate copies) is eventually delivered, eaten by a fault, or
// still queued at teardown — nothing is double-counted or lost to the
// accounting.
void expect_stats_invariants(const SweepResult& run) {
  const NetStats& s = run.stats;
  EXPECT_EQ(s.sent + s.duplicated,
            s.delivered + s.dropped_loss + s.dropped_partition +
                s.dropped_crash + s.dropped_down + run.pending);
  // Each quorum phase retries at most max_attempts - 1 times.
  EXPECT_LE(s.client.retries, s.client.phases * (kMaxAttempts - 1));
  // Catch-up traffic only exists once some replica actually rejoined.
  if (s.replica_recoveries == 0) {
    EXPECT_EQ(s.catchup_msgs, 0u);
  }
}

TEST(NetChaosTest, CleanNetworkSweep) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SweepResult run = run_once(2, 2, 4, seed, NetFaultPlan{});
    const lin::HistoryStats hs = lin::compute_stats(run.history);
    EXPECT_EQ(hs.pending_writes + hs.pending_reads, 0u) << "seed " << seed;
    const lin::CheckResult sl = lin::check_shrinking_lemma(run.history);
    EXPECT_TRUE(sl.ok) << "seed " << seed << ": " << sl.violation;
    const lin::Witness w = lin::build_linearization(run.history);
    EXPECT_TRUE(w.ok) << "seed " << seed << ": " << w.error;
  }
}

TEST(NetChaosTest, TenPercentLossSweepWithConformance) {
  // The acceptance fault level: 10% message loss plus random delay/
  // dup/reorder. The retry layer must hide it — or degrade cleanly.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng plan_rng(seed * 977);
    const NetFaultPlan plan =
        NetFaultPlan::random(plan_rng, 3, 1600, /*loss=*/100, 0, 0);
    analysis::AnalysisSession session(/*detect_races=*/false);
    lin::History h;
    {
      sched::ScopedAccessObserver observe(&session);
      h = run_once(2, 2, 4, seed, plan).history;
    }
    const analysis::AnalysisReport report = session.report();
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.text();
    const lin::CheckResult sl = lin::check_shrinking_lemma(h);
    EXPECT_TRUE(sl.ok) << "seed " << seed << ": " << sl.violation;
    const lin::Witness w = lin::build_linearization(h);
    EXPECT_TRUE(w.ok) << "seed " << seed << ": " << w.error;
  }
}

TEST(NetChaosTest, FullChaosSweepStaysLinearizable) {
  // Loss + partitions + replica crashes, f in {1, 2}. Operations may
  // degrade to Unavailable (pending ops); histories must stay clean.
  std::uint64_t pending_seen = 0;
  for (int f = 1; f <= 2; ++f) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng plan_rng(seed * 31 + static_cast<std::uint64_t>(f));
      // Severe on purpose: per-replica crash at 600‰ makes losing more
      // than f replicas likely across the sweep, so the degradation
      // path (Unavailable -> pending op) is actually exercised.
      const NetFaultPlan plan = NetFaultPlan::random(
          plan_rng, 2 * f + 1, 1600, /*loss=*/150, /*partition=*/500,
          /*crash=*/600, /*recover_permille=*/400);
      const SweepResult run = run_once(2, 2, 3, seed, plan, f);
      expect_stats_invariants(run);
      const lin::HistoryStats hs = lin::compute_stats(run.history);
      pending_seen += hs.pending_writes + hs.pending_reads;
      const lin::CheckResult sl = lin::check_shrinking_lemma(run.history);
      EXPECT_TRUE(sl.ok) << "f=" << f << " seed=" << seed << " plan="
                         << plan.to_string() << ": " << sl.violation;
      const lin::Witness w = lin::build_linearization(run.history);
      EXPECT_TRUE(w.ok) << "f=" << f << " seed=" << seed << " plan="
                        << plan.to_string() << ": " << w.error;
    }
  }
  // The sweep's fault levels are high enough that some run degrades;
  // if none ever does, the chaos knob is broken.
  EXPECT_GT(pending_seen, 0u);
}

TEST(NetChaosTest, PartitionedMinorityAllPending) {
  // A permanent partition strands the clients with a single replica
  // (a minority for f = 1): every operation must exhaust its retry
  // budget and come back Unavailable — recorded pending, no hang.
  NetFaultPlan plan;
  plan.partitions.push_back(
      PartitionSpec{0, 1000000000ull, std::vector<int>{0, 1}});
  const SweepResult run = run_once(2, 1, 3, 5, plan);
  const lin::HistoryStats hs = lin::compute_stats(run.history);
  EXPECT_EQ(hs.pending_writes, 2u * 1u);  // each writer dies on write 1
  EXPECT_EQ(hs.pending_reads, 1u);
  EXPECT_GT(run.stats.client.unavailable, 0u);
  expect_stats_invariants(run);
  const lin::CheckResult sl = lin::check_shrinking_lemma(run.history);
  EXPECT_TRUE(sl.ok) << sl.violation;
}

TEST(NetChaosTest, RecoverySweepStaysLinearizable) {
  // Crash–recovery cycles on top of 10% loss: replicas go down, eat
  // traffic, rejoin through the catch-up protocol, and serve again.
  // Histories stay linearizable, the conformance analyzer and the
  // durability auditor stay silent, and the stats ledger balances.
  std::uint64_t recoveries_seen = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng plan_rng(seed * 53);
    const NetFaultPlan plan = NetFaultPlan::random(
        plan_rng, 3, 1600, /*loss=*/100, /*partition=*/0, /*crash=*/0,
        /*recover_permille=*/700);
    analysis::AnalysisSession session(/*detect_races=*/false);
    SweepResult run;
    {
      sched::ScopedAccessObserver observe(&session);
      run = run_once(2, 2, 4, seed, plan);
    }
    const analysis::AnalysisReport report = session.report();
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.text();
    EXPECT_EQ(run.durability_findings, 0u)
        << "seed " << seed << " plan=" << plan.to_string();
    expect_stats_invariants(run);
    recoveries_seen += run.stats.replica_recoveries;
    const lin::CheckResult sl = lin::check_shrinking_lemma(run.history);
    EXPECT_TRUE(sl.ok) << "seed " << seed << " plan=" << plan.to_string()
                       << ": " << sl.violation;
    const lin::Witness w = lin::build_linearization(run.history);
    EXPECT_TRUE(w.ok) << "seed " << seed << " plan=" << plan.to_string()
                      << ": " << w.error;
  }
  // At 700‰ per replica, the sweep without rejoins means the recovery
  // injector is broken.
  EXPECT_GT(recoveries_seen, 0u);
}

TEST(NetChaosTest, DeterministicReplay) {
  // (schedule seed, net seed, plan) fixes the execution: same history
  // dump, same transport statistics.
  Rng plan_rng(123);
  const NetFaultPlan plan = NetFaultPlan::random(plan_rng, 3, 1600, 100, 300,
                                                 300, /*recover=*/500);
  const auto dump_of = [&](const SweepResult& run) {
    std::ostringstream os;
    lin::dump_history(run.history, os);
    return os.str();
  };
  const SweepResult a = run_once(2, 2, 3, 77, plan);
  const SweepResult b = run_once(2, 2, 3, 77, plan);
  EXPECT_EQ(dump_of(a), dump_of(b));
  EXPECT_EQ(a.stats.sent, b.stats.sent);
  EXPECT_EQ(a.stats.delivered, b.stats.delivered);
  EXPECT_EQ(a.stats.client.retries, b.stats.client.retries);
  EXPECT_EQ(a.stats.client.unavailable, b.stats.client.unavailable);
  EXPECT_EQ(a.stats.replica_recoveries, b.stats.replica_recoveries);
  EXPECT_EQ(a.stats.catchup_msgs, b.stats.catchup_msgs);
  // And a different schedule seed genuinely changes the execution.
  const SweepResult c = run_once(2, 2, 3, 78, plan);
  EXPECT_NE(dump_of(a), dump_of(c));
}

}  // namespace
}  // namespace compreg::net
