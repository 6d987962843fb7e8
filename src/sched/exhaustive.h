// Naive bounded-exhaustive schedule enumeration — ORACLE ONLY.
//
// Enumerates every interleaving of the first `max_depth` schedule
// points of a scenario; beyond the bound the schedule continues
// deterministically (first runnable process). Each enumerated schedule
// re-runs the scenario from scratch, so scenario state must be built
// inside the callback.
//
// This enumerator is NOT a certification engine: it lives in
// sched::oracle and exists solely as the independent ground truth that
// the DPOR engine (sched/dpor.h) is cross-validated against
// (tests/analysis/dpor_cross_test.cpp, verify_schedules --cross-validate)
// and as the baseline row in bench/bench_dpor.cpp. All certification —
// CI certificates, verify_schedules, chaos upgrades — goes through
// explore_dpor. Do not add new callers outside oracles and benchmarks.
#pragma once

#include <cstdint>
#include <functional>

#include "sched/sim_scheduler.h"

namespace compreg::sched::oracle {

// Builds one instance of the scenario into `sim` (fresh shared objects,
// spawn all processes) and returns a verifier invoked after run()
// completes; the verifier should CHECK/assert correctness of that
// execution.
using Scenario = std::function<std::function<void()>(SimScheduler&)>;

struct ExploreStats {
  std::uint64_t schedules = 0;       // schedules executed
  std::uint64_t max_points = 0;      // longest execution seen
  bool exhausted = true;             // false if stopped by max_schedules
};

ExploreStats explore(const Scenario& scenario, int max_depth,
                     std::uint64_t max_schedules = 1'000'000);

}  // namespace compreg::sched::oracle
