// Dynamic partial-order reduction (DPOR): stateless model checking of
// the schedule space with backtrack sets, sleep sets, reader-symmetry
// quotienting, and deterministic parallel exploration.
//
// The naive enumerator (sched/exhaustive.h, retained only as the
// cross-validation oracle under sched::oracle) explores every
// interleaving of a scenario's schedule points — exponential in both
// process count and depth. DPOR [Flanagan & Godefroid, POPL 2005]
// explores one representative per Mazurkiewicz trace (equivalence class
// of executions under commuting adjacent *independent* steps) plus
// whatever the dynamically computed race reversals require: after each
// execution it finds every pair of dependent, happens-before-adjacent
// steps of different processes and schedules the reversed order from
// the earlier step's state; sleep sets [Godefroid] additionally prune
// branches whose first step commutes with everything explored since
// they went to sleep.
//
// Two multipliers on top of the classic algorithm (docs/analysis.md
// carries the soundness arguments):
//
//  - Reader symmetry (SymmetrySpec): the construction's readers are
//    interchangeable, so executions that differ only by a permutation
//    of reader identities are isomorphic. Two mechanisms compose:
//    (a) trace canonicalization — the engine runs only executions
//    whose readers take their FIRST step in index order, by filtering
//    enabled sets and remapping backtrack picks of not-yet-started
//    readers onto the lowest not-yet-started one (canonical_schedule()
//    exposes the normal form); and (b) class-orbit covering — after
//    each execution the engine computes a canonical signature of its
//    Mazurkiewicz class (the lexicographically minimal linearization
//    of the dependence DAG, minimized over all reader permutations,
//    hashing each event's process, per-process index and access
//    labels) and skips race analysis and branch launching when that
//    orbit is already covered. (a) alone cannot reach R!: when reader
//    first steps are mutually independent, a class and its permuted
//    image both admit first-start-canonical linearizations and both
//    get explored; (b) closes exactly that leak, and as a byproduct
//    also suppresses classic DPOR re-exploration of a class the sleep
//    sets missed. Requires count <= 6 (R! signature passes per
//    execution).
//
//  - Deterministic parallel exploration (jobs): pending branches form a
//    frontier ordered by a canonical DFS key; each wave runs a fixed
//    number of them concurrently (N workers, each owning a private
//    SimScheduler + recorder), then integrates the results serially in
//    canonical order. Wave composition never depends on worker timing,
//    so every statistic, the explored schedule set, and any violation
//    witness are byte-identical for every value of jobs.
//
// Dependence is decided by analysis::DependencyModel from PR 2's
// AccessLabels: two grants are dependent iff they touch the same cell
// with at least one write (opaque grants — bare points, crash-consumed
// grants, parks — and global-order cells such as the net send/poll
// points are always dependent).
//
// Faults: an optional FaultPlan is applied identically to every
// explored schedule (crash points count per-process points, stalls
// count global decisions — both deterministic per schedule), so a run
// certifies "all schedules under this fault plan". Hang plans would
// wedge every execution and are rejected; plans that target a process
// inside the symmetry group would break the readers' interchangeability
// and are rejected when symmetry is on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/dependency.h"
#include "fault/fault_plan.h"
#include "sched/sim_scheduler.h"

namespace compreg::sched {

// Builds one fresh instance of the scenario into `sim` (shared objects
// constructed inside the callback, all processes spawned) and returns a
// verifier invoked after run() completes. The verifier returns true
// when that execution passed; returning false stops the exploration and
// reports the execution's schedule as the violation witness.
//
// With jobs > 1 the callback and the returned verifier run on worker
// threads, one execution at a time per worker: both must be thread-safe
// with respect to the OTHER workers (per-execution state is still
// single-threaded). dpor_worker_id() identifies the calling worker so
// callers can keep per-worker state (e.g. one conformance session per
// worker).
using DporScenario = std::function<std::function<bool()>(SimScheduler&)>;

// A group of interchangeable processes: procs [first, first + count).
// The workload spawns readers as procs C..C+R-1, so reader symmetry is
// {first = C, count = R}. count < 2 disables the reduction.
struct SymmetrySpec {
  int first = 0;
  int count = 0;

  bool active() const { return count >= 2; }
  bool member(int proc) const {
    return proc >= first && proc < first + count;
  }
};

// Relabels the symmetry-group processes of `trace` by order of first
// appearance: the orbit representative the reduced engine explores.
// Identity on traces the engine itself produced, and invariant under
// any permutation of group members applied to `trace`.
std::vector<int> canonical_schedule(const std::vector<int>& trace,
                                    const SymmetrySpec& sym);

// Index of the calling DPOR worker in [0, jobs), valid inside the
// scenario callback and verifier during explore_dpor; 0 outside.
int dpor_worker_id();

// The worker count explore_dpor runs for `jobs`: at most one worker per
// CPU the calling thread may run on, since each worker pins itself to a
// CPU of its own.
int dpor_workers(int jobs);

struct DporOptions {
  std::uint64_t max_schedules = 1'000'000;
  // Branch (insert backtrack points) only at trace positions < bound;
  // < 0 means unbounded. When a race reversal lands beyond the bound
  // the result is flagged depth_limited: bounded, NOT certified.
  int depth_bound = -1;
  bool sleep_sets = true;
  analysis::DependencyOptions dependency;
  // Quotient the schedule space by permutations of this process group
  // (reader symmetry). Inactive by default. Implies class_covering.
  SymmetrySpec symmetry;
  // Class-orbit covering with the trivial group: skip race analysis
  // for executions whose Mazurkiewicz class was already analyzed
  // (classic DPOR + sleep sets can re-explore a class exponentially
  // often; the signature set cuts every such re-exploration's
  // subtree). Same certified claim as plain DPOR — one representative
  // per class. Always on when symmetry is active.
  bool class_covering = false;
  // Worker threads running executions concurrently, capped at
  // dpor_workers(jobs). Exploration results are independent of this
  // value — it only buys wall-clock.
  int jobs = 1;
  // Executions dispatched per wave. A wave is the unit of parallelism
  // AND of determinism: results are integrated in canonical order at
  // the wave barrier, so two runs agree iff their wave sizes agree.
  // Changing it changes nothing but scheduling granularity; it is an
  // engine constant surfaced only so tests can exercise small waves.
  int wave_size = 256;
  // Applied identically to every explored schedule. Must not hang, and
  // must not target symmetry-group processes when symmetry is active.
  fault::FaultPlan plan;
  // Observer of every labeled access (the conformance analyzer): called
  // once per worker at startup; the returned observer sees exactly that
  // worker's executions, serialized.
  std::function<AccessObserver*(int worker)> tee_for_worker;
  // Called when an execution is dispatched, with the schedule prefix
  // about to be replayed (the continuation past the prefix is
  // deterministic) and the count of executions dispatched so far. Used
  // for liveness reporting and watchdog artifacts. Runs on the
  // integrator thread, never concurrently.
  std::function<void(const std::vector<int>& prefix, std::uint64_t done)>
      on_execution;
};

struct DporStats {
  std::uint64_t schedules = 0;        // executions integrated
  std::uint64_t backtrack_points = 0; // race reversals scheduled
  std::uint64_t sleep_set_hits = 0;   // branch candidates pruned asleep
  std::uint64_t symmetry_remaps = 0;  // backtrack picks canonicalized
  std::uint64_t orbit_hits = 0;       // executions with an already-
                                      // covered class orbit (ran, but
                                      // spawned no reversals)
  std::uint64_t waves = 0;            // parallel dispatch rounds
  std::uint64_t max_points = 0;       // longest execution seen
  // log10 of the naive enumeration bound: the multinomial coefficient
  // of the first execution's per-process step counts — the number of
  // complete interleavings the oracle enumerator would visit.
  double naive_log10 = 0.0;
  bool exhausted = true;       // false when stopped by max_schedules
  bool depth_limited = false;  // a reversal fell beyond depth_bound
};

struct DporResult {
  DporStats stats;
  bool ok = true;
  // Full trace of the canonically-first failing execution when !ok;
  // replayable with ScriptPolicy (or verify_schedules --schedule) — the
  // replay does not need the symmetry or jobs settings.
  std::vector<int> violation_schedule;

  // Every reachable schedule (of the bounded space, under the given
  // plan, up to symmetry when active) was explored and passed.
  bool certified() const {
    return ok && stats.exhausted && !stats.depth_limited;
  }
};

DporResult explore_dpor(const DporScenario& scenario,
                        const DporOptions& opts = {});

}  // namespace compreg::sched
