// E15 — Schedule-space reduction: naive bounded-exhaustive enumeration
// (sched/exhaustive.h, the oracle) vs DPOR without sleep sets vs full
// DPOR (sched/dpor.h), on the Anderson composite register under the
// deterministic simulator, swept over C in {2,3} x R in {1,2} with one
// operation per process.
//
// E17 — Symmetry quotienting and parallel exploration: full DPOR vs
// DPOR + reader symmetry + class-orbit covering on the same workload
// (reduction_factor = plain schedules / reduced schedules), plus the
// wall-clock speedup of --jobs {2,4} over --jobs 1 on the largest
// certifiable row (speedup is the only timing-derived number here; the
// schedule counts it divides are deterministic).
//
// The quantities are exact schedule counts from deterministic replay
// (no randomness), so rows are exactly reproducible; wall-clock totals
// are printed as context, not as the measurement. Every row is one
// JSON object so downstream tooling can diff runs.
//
// All three enumerators are capped at the same schedule budget
// (argv[1], default 100000): on anything beyond the smallest
// configuration the naive enumerator blows through any budget — that
// asymmetry, visible as "exhausted":false next to a DPOR row that
// certified, IS the experiment. The analytic naive bound (naive_log10,
// the multinomial over per-process step counts) quantifies the gap
// even where enumeration is infeasible.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/composite_register.h"
#include "lin/workload.h"
#include "sched/dpor.h"
#include "sched/exhaustive.h"
#include "util/bench_json.h"

namespace {

using compreg::core::CompositeRegister;
using compreg::lin::WorkloadConfig;

WorkloadConfig one_op_config() {
  WorkloadConfig cfg;
  cfg.writes_per_writer = 1;
  cfg.scans_per_reader = 1;
  return cfg;
}

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Every JSON row is printed AND retained, so --json FILE can emit the
// whole run as machine-readable JSON lines (CI uploads BENCH_dpor.json).
compreg::BenchRows rows(stdout);

std::string common(const char* experiment, int components, int readers,
                   const char* mode) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"experiment\":\"%s\",\"impl\":\"anderson\",\"ops\":1,"
                "\"components\":%d,\"readers\":%d,\"mode\":\"%s\",",
                experiment, components, readers, mode);
  return buf;
}

void run_naive(int components, int readers, std::uint64_t budget) {
  const WorkloadConfig cfg = one_op_config();
  compreg::sched::oracle::Scenario scenario =
      [&](compreg::sched::SimScheduler& sim) -> std::function<void()> {
    auto snap = std::make_shared<CompositeRegister<std::uint64_t>>(
        components, readers, 0);
    auto rec = compreg::lin::spawn_sim_workload(sim, *snap, cfg);
    return [snap, rec] {};
  };
  const auto t0 = std::chrono::steady_clock::now();
  const compreg::sched::oracle::ExploreStats st =
      compreg::sched::oracle::explore(scenario, /*max_depth=*/64, budget);
  rows.add("%s\"schedules\":%" PRIu64
           ",\"exhausted\":%s,\"max_points\":%" PRIu64 ",\"wall_ms\":%.1f}",
      common("E15", components, readers, "naive").c_str(), st.schedules,
      st.exhausted ? "true" : "false", st.max_points, elapsed_ms(t0));
}

// Shared runner for E15 (plain/sleep) and E17 (symmetry/jobs) rows.
struct DporRow {
  compreg::sched::DporResult result;
  double wall_ms = 0.0;
};

DporRow time_dpor(int components, int readers, std::uint64_t budget,
                  bool sleep_sets, bool symmetry, int jobs) {
  const WorkloadConfig cfg = one_op_config();
  compreg::sched::DporScenario scenario =
      [&](compreg::sched::SimScheduler& sim) {
        auto snap = std::make_shared<CompositeRegister<std::uint64_t>>(
            components, readers, 0);
        auto rec = compreg::lin::spawn_sim_workload(sim, *snap, cfg);
        return [snap, rec] { return true; };
      };
  compreg::sched::DporOptions opts;
  opts.max_schedules = budget;
  opts.sleep_sets = sleep_sets;
  opts.jobs = jobs;
  if (symmetry) {
    opts.symmetry.first = components;
    opts.symmetry.count = readers;
  }
  const auto t0 = std::chrono::steady_clock::now();
  DporRow out;
  out.result = compreg::sched::explore_dpor(scenario, opts);
  out.wall_ms = elapsed_ms(t0);
  return out;
}

void run_dpor(int components, int readers, std::uint64_t budget,
              bool sleep_sets) {
  const DporRow r = time_dpor(components, readers, budget, sleep_sets,
                              /*symmetry=*/false, /*jobs=*/1);
  const auto& st = r.result.stats;
  rows.add("%s\"schedules\":%" PRIu64
      ",\"exhausted\":%s,\"max_points\":%" PRIu64
      ",\"backtrack_points\":%" PRIu64 ",\"sleep_hits\":%" PRIu64
      ",\"naive_log10\":%.1f,\"certified\":%s,\"wall_ms\":%.1f}",
      common("E15", components, readers, sleep_sets ? "dpor+sleep" : "dpor")
          .c_str(),
      st.schedules, st.exhausted ? "true" : "false", st.max_points,
      st.backtrack_points, st.sleep_set_hits, st.naive_log10,
      r.result.certified() ? "true" : "false", r.wall_ms);
}

// E17 rows: the reduced engine against the plain one (reduction_factor)
// and against its own wall-clock at higher job counts (speedup).
void run_symmetry(int components, int readers, std::uint64_t budget) {
  const DporRow plain = time_dpor(components, readers, budget,
                                  /*sleep_sets=*/true, /*symmetry=*/false,
                                  /*jobs=*/1);
  const DporRow sym = time_dpor(components, readers, budget,
                                /*sleep_sets=*/true, /*symmetry=*/true,
                                /*jobs=*/1);
  const auto& st = sym.result.stats;
  const std::uint64_t analyzed = st.schedules - st.orbit_hits;
  const double factor =
      st.schedules > 0 ? static_cast<double>(plain.result.stats.schedules) /
                             static_cast<double>(st.schedules)
                       : 0.0;
  rows.add("%s\"schedules\":%" PRIu64 ",\"orbit_hits\":%" PRIu64
      ",\"analyzed\":%" PRIu64 ",\"plain_schedules\":%" PRIu64
      ",\"reduction_factor\":%.2f,\"exhausted\":%s,\"certified\":%s,"
      "\"schedules_per_sec\":%.0f,\"wall_ms\":%.1f}",
      common("E17", components, readers, "dpor+sym").c_str(), st.schedules,
      st.orbit_hits, analyzed, plain.result.stats.schedules, factor,
      st.exhausted ? "true" : "false",
      sym.result.certified() ? "true" : "false",
      sym.wall_ms > 0.0 ? 1000.0 * static_cast<double>(st.schedules) /
                              sym.wall_ms
                        : 0.0,
      sym.wall_ms);
}

// Wall-clock scaling of the worker pool. Runs the PLAIN engine
// budget-capped: the symmetry-reduced spaces above certify in
// milliseconds, far too little work to amortize thread startup, so the
// speedup is measured where the parallelism matters — a long
// exploration. (On a single-core host expect ~1.0 or below.)
void run_jobs_sweep(int components, int readers, std::uint64_t budget) {
  double wall_j1 = 0.0;
  for (int jobs : {1, 2, 4}) {
    const DporRow r = time_dpor(components, readers, budget,
                                /*sleep_sets=*/true, /*symmetry=*/false, jobs);
    if (jobs == 1) wall_j1 = r.wall_ms;
    const auto& st = r.result.stats;
    rows.add("%s\"jobs\":%d,\"schedules\":%" PRIu64 ",\"waves\":%" PRIu64
        ",\"certified\":%s,\"schedules_per_sec\":%.0f,\"wall_ms\":%.1f,"
        "\"speedup\":%.2f}",
        common("E17", components, readers, "dpor+jobs").c_str(), jobs,
        st.schedules, st.waves, r.result.certified() ? "true" : "false",
        r.wall_ms > 0.0
            ? 1000.0 * static_cast<double>(st.schedules) / r.wall_ms
            : 0.0,
        r.wall_ms, r.wall_ms > 0.0 ? wall_j1 / r.wall_ms : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t budget = 100000;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      budget = std::strtoull(argv[i], nullptr, 10);
    }
  }
  std::printf("E15: schedule-space reduction, naive vs DPOR vs DPOR+sleep "
              "(budget %" PRIu64 " schedules per row)\n",
              budget);
  for (int components : {2, 3}) {
    for (int readers : {1, 2}) {
      run_naive(components, readers, budget);
      run_dpor(components, readers, budget, /*sleep_sets=*/false);
      run_dpor(components, readers, budget, /*sleep_sets=*/true);
    }
  }
  std::printf("E17: reader-symmetry + class-orbit covering "
              "(reduction_factor = plain/reduced schedules), then --jobs "
              "wall-clock speedup on a budget-capped C=2 R=3 run\n");
  for (int readers : {2, 3}) {
    run_symmetry(/*components=*/1, readers, budget);
    run_symmetry(/*components=*/2, readers, budget);
  }
  run_jobs_sweep(/*components=*/2, /*readers=*/3, budget);
  if (json_path && !rows.write(json_path, "dpor")) return 1;
  return 0;
}
