// Soundness tests for the symmetry-reduced, class-covering, parallel
// DPOR engine (sched/dpor.h). Three claims are checked empirically:
//
//  1. canonical_schedule is a true orbit invariant: permuting the
//     symmetry-group processes of a trace never changes its canonical
//     form, and canonicalization is idempotent (equivariance).
//  2. The reduced engine (trace canonicalization + class-orbit
//     covering) reaches the SAME verdict as the unreduced engine, and
//     on seeded mutants finds the IDENTICAL set of distinct violations
//     — reduction must never hide a bug, only duplicate work.
//  3. Parallel exploration is schedule-for-schedule deterministic: all
//     statistics and the violation set are identical for any --jobs
//     value (the wave/integration design makes worker timing
//     unobservable).
//
// The exact class/orbit counts behind claim 2 were additionally
// validated against a full oracle enumeration with an independent
// signature implementation; docs/analysis.md records those numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/composite_register.h"
#include "core/snapshot.h"
#include "lin/shrinking_checker.h"
#include "lin/workload.h"
#include "mutants.h"
#include "sched/dpor.h"
#include "util/rng.h"

namespace compreg {
namespace {

using SnapFactory =
    std::function<std::unique_ptr<core::Snapshot<std::uint64_t>>()>;

// ---------------------------------------------------------------------
// 1. Equivariance of canonical_schedule.

std::vector<int> apply_perm(const std::vector<int>& trace,
                            const sched::SymmetrySpec& sym,
                            const std::vector<int>& perm) {
  std::vector<int> out = trace;
  for (int& p : out) {
    if (sym.member(p)) p = sym.first + perm[static_cast<std::size_t>(p - sym.first)];
  }
  return out;
}

TEST(SymmetryCrossTest, CanonicalScheduleIsPermutationInvariant) {
  sched::SymmetrySpec sym;
  sym.first = 2;  // procs 0,1 fixed (writers); 2,3,4 form the group
  sym.count = 3;
  Rng rng(0xca11ab1e);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> trace;
    const int len = 3 + static_cast<int>(rng.below(20));
    for (int i = 0; i < len; ++i) {
      trace.push_back(static_cast<int>(rng.below(5)));
    }
    const std::vector<int> canon = sched::canonical_schedule(trace, sym);
    std::vector<int> perm{0, 1, 2};
    do {
      EXPECT_EQ(sched::canonical_schedule(apply_perm(trace, sym, perm), sym),
                canon)
          << "trial " << trial;
    } while (std::next_permutation(perm.begin(), perm.end()));
    // Idempotence: the canonical form is its own canonical form.
    EXPECT_EQ(sched::canonical_schedule(canon, sym), canon);
  }
}

// ---------------------------------------------------------------------
// 2. Identical verdicts and violation sets, reduced vs unreduced.

struct Enumeration {
  sched::DporStats stats;
  bool certified = false;
  std::set<std::string> violations;  // distinct checker messages
};

Enumeration run_dpor(const SnapFactory& make, const lin::WorkloadConfig& cfg,
                     const sched::DporOptions& base) {
  Enumeration out;
  // With jobs > 1 the checks run on the engine's worker threads.
  std::mutex violations_mu;
  sched::DporScenario scenario = [&](sched::SimScheduler& sim) {
    std::shared_ptr<core::Snapshot<std::uint64_t>> snap = make();
    auto rec = lin::spawn_sim_workload(sim, *snap, cfg);
    return [&out, &violations_mu, snap, rec] {
      const lin::CheckResult r = lin::check_shrinking_lemma(rec->merge());
      if (!r.ok) {
        const std::lock_guard<std::mutex> lock(violations_mu);
        out.violations.insert(r.violation);
      }
      return true;  // keep exploring: we want the FULL violation set
    };
  };
  const sched::DporResult r = sched::explore_dpor(scenario, base);
  EXPECT_TRUE(r.stats.exhausted) << "enumeration truncated — shrink config";
  out.stats = r.stats;
  out.certified = r.certified();
  return out;
}

sched::DporOptions reduced_opts(int components, int readers) {
  sched::DporOptions o;
  o.symmetry.first = components;
  o.symmetry.count = readers;
  return o;
}

void expect_same_violations(const SnapFactory& make,
                            const lin::WorkloadConfig& cfg,
                            const sched::DporOptions& reduced_options,
                            bool expect_violation) {
  const Enumeration unreduced = run_dpor(make, cfg, sched::DporOptions{});
  const Enumeration reduced = run_dpor(make, cfg, reduced_options);
  EXPECT_EQ(unreduced.violations.empty(), !expect_violation);
  // The reduction collapses reader-permuted executions, but the
  // checker's messages are reader-anonymous (they name components and
  // write ids), so the DISTINCT violation sets must match exactly.
  EXPECT_EQ(reduced.violations, unreduced.violations);
  EXPECT_LE(reduced.stats.schedules, unreduced.stats.schedules);
  EXPECT_GT(reduced.stats.schedules, 0u);
}

TEST(SymmetryCrossTest, CleanAndersonIdenticalVerdictAcrossReaders) {
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 1;
  cfg.scans_per_reader = 1;
  for (int readers : {2, 3}) {
    const SnapFactory make = [readers] {
      return std::make_unique<core::CompositeRegister<std::uint64_t>>(
          1, readers, 0);
    };
    const Enumeration unreduced = run_dpor(make, cfg, sched::DporOptions{});
    const Enumeration reduced = run_dpor(make, cfg, reduced_opts(1, readers));
    EXPECT_TRUE(unreduced.certified);
    EXPECT_TRUE(reduced.certified);
    EXPECT_TRUE(reduced.violations.empty());
    EXPECT_TRUE(unreduced.violations.empty());
    // Executions that survive to race analysis (schedules - orbit_hits)
    // must number at most the unreduced engine's class count, and the
    // group must buy real reduction at R >= 2.
    EXPECT_LT(reduced.stats.schedules - reduced.stats.orbit_hits,
              unreduced.stats.schedules)
        << "R=" << readers;
  }
}

TEST(SymmetryCrossTest, NaiveCollectMutantIdenticalViolationSets) {
  // NaiveCollect is reader-symmetric (scan_items is identical for every
  // reader id), so symmetry reduction applies — and must surface the
  // exact violation set the unreduced engine finds.
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 2;
  cfg.scans_per_reader = 1;
  expect_same_violations(
      [] { return std::make_unique<mutants::NaiveCollectSnapshot>(2, 2, 0); },
      cfg, reduced_opts(2, 2), /*expect_violation=*/true);
}

TEST(SymmetryCrossTest, StaleCacheMutantCoveringIdenticalViolationSets) {
  // StaleCache hides unlabeled shared state, sound for enumerators only
  // at R=1 (see mutants.h) — which makes it the class-covering test:
  // covering with the trivial group must preserve the violation set.
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 2;
  cfg.scans_per_reader = 3;
  sched::DporOptions covering;
  covering.class_covering = true;
  expect_same_violations(
      [] { return std::make_unique<mutants::StaleCacheSnapshot>(2, 1, 0); },
      cfg, covering, /*expect_violation=*/true);
}

// ---------------------------------------------------------------------
// 3. Parallel determinism: jobs is unobservable in the results.

TEST(SymmetryCrossTest, JobsValueIsUnobservableInStatsAndViolations) {
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 2;
  cfg.scans_per_reader = 1;
  const SnapFactory clean = [] {
    return std::make_unique<core::CompositeRegister<std::uint64_t>>(2, 2, 0);
  };
  const SnapFactory mutant = [] {
    return std::make_unique<mutants::NaiveCollectSnapshot>(2, 2, 0);
  };
  for (const auto& [make, name] :
       {std::pair<SnapFactory, const char*>{clean, "clean"},
        std::pair<SnapFactory, const char*>{mutant, "mutant"}}) {
    Enumeration baseline;
    for (int jobs : {1, 2, 8}) {
      sched::DporOptions o = reduced_opts(2, 2);
      o.jobs = jobs;
      o.wave_size = 7;  // small waves: exercise many integration rounds
      const Enumeration e = run_dpor(make, cfg, o);
      if (jobs == 1) {
        baseline = e;
        continue;
      }
      EXPECT_EQ(e.stats.schedules, baseline.stats.schedules) << name;
      EXPECT_EQ(e.stats.backtrack_points, baseline.stats.backtrack_points)
          << name;
      EXPECT_EQ(e.stats.sleep_set_hits, baseline.stats.sleep_set_hits) << name;
      EXPECT_EQ(e.stats.symmetry_remaps, baseline.stats.symmetry_remaps)
          << name;
      EXPECT_EQ(e.stats.orbit_hits, baseline.stats.orbit_hits) << name;
      EXPECT_EQ(e.stats.waves, baseline.stats.waves) << name;
      EXPECT_EQ(e.stats.max_points, baseline.stats.max_points) << name;
      EXPECT_EQ(e.violations, baseline.violations) << name;
    }
  }
}

}  // namespace
}  // namespace compreg
