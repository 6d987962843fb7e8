#include "sched/dpor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <thread>
#include <unordered_set>
#include <utility>

#include "fault/fault_policy.h"
#include "sched/policy.h"
#include "util/assert.h"

namespace compreg::sched {

namespace {

thread_local int t_dpor_worker = 0;

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

void add_unique(std::vector<int>& v, int x) {
  if (!contains(v, x)) v.push_back(x);
}

using Sig = std::pair<std::uint64_t, std::uint64_t>;

struct SigHash {
  std::size_t operator()(const Sig& s) const {
    return static_cast<std::size_t>(s.first ^
                                    (s.second * 0x9e3779b97f4a7c15ull));
  }
};

}  // namespace

int dpor_worker_id() { return t_dpor_worker; }

int dpor_workers(int jobs) {
  const int cpus = static_cast<int>(allowed_cpus().size());
  return cpus == 0 ? jobs : std::min(jobs, cpus);
}

std::vector<int> canonical_schedule(const std::vector<int>& trace,
                                    const SymmetrySpec& sym) {
  if (!sym.active()) return trace;
  std::vector<int> relabel(static_cast<std::size_t>(sym.count), -1);
  int next = 0;
  std::vector<int> out;
  out.reserve(trace.size());
  for (int p : trace) {
    if (sym.member(p)) {
      int& m = relabel[static_cast<std::size_t>(p - sym.first)];
      if (m < 0) m = sym.first + next++;
      out.push_back(m);
    } else {
      out.push_back(p);
    }
  }
  return out;
}

namespace {

// Replays a schedule prefix, then continues deterministically with the
// lowest-id allowed process; records the allowed set of every decision
// (the backtrack-insertion rule needs it). Under symmetry the allowed
// set is the runnable set minus every not-yet-started group member
// except the lowest: group members may only take their FIRST step in
// index order, which pins every execution to its orbit's canonical
// representative (canonical_schedule is the identity on the traces this
// policy admits).
class DporPolicy final : public SchedulePolicy {
 public:
  DporPolicy(const std::vector<int>& script, const SymmetrySpec& sym)
      : script_(script), sym_(sym) {}

  int pick(const std::vector<int>& runnable) override {
    const std::vector<int>& allowed = filter(runnable);
    enabled_.push_back(allowed);
    int choice;
    if (pos_ < script_.size()) {
      choice = script_[pos_];
      COMPREG_CHECK(
          contains(allowed, choice),
          "DPOR replay diverged: proc %d not allowed at step %zu "
          "(scenario state must be rebuilt fresh and schedule-determined)",
          choice, pos_);
    } else {
      choice = allowed.front();
    }
    mark_started(choice);
    ++pos_;
    return choice;
  }

  std::vector<std::vector<int>> take_enabled() { return std::move(enabled_); }

 private:
  bool started(int p) const {
    return p < static_cast<int>(started_.size()) &&
           started_[static_cast<std::size_t>(p)] != 0;
  }
  void mark_started(int p) {
    if (p >= static_cast<int>(started_.size())) {
      started_.resize(static_cast<std::size_t>(p) + 1, 0);
    }
    started_[static_cast<std::size_t>(p)] = 1;
  }

  // `runnable` arrives sorted ascending; the filtered view stays sorted.
  const std::vector<int>& filter(const std::vector<int>& runnable) {
    if (!sym_.active()) return runnable;
    int canon = -1;  // lowest not-yet-started group member still alive
    for (int p : runnable) {
      if (sym_.member(p) && !started(p)) {
        canon = p;
        break;
      }
    }
    scratch_.clear();
    for (int p : runnable) {
      if (sym_.member(p) && !started(p) && p != canon) continue;
      scratch_.push_back(p);
    }
    return scratch_;
  }

  const std::vector<int>& script_;
  const SymmetrySpec& sym_;
  std::size_t pos_ = 0;
  std::vector<std::vector<int>> enabled_;
  std::vector<char> started_;
  std::vector<int> scratch_;
};

// One state of the exploration tree (the state after the picks on the
// path from the root). Nodes live exactly while a pending branch runs
// through them: `live` counts dispatched-but-not-yet-integrated tasks
// in the subtree, and a node whose count hits zero can never receive
// another backtrack insertion (insertions come only from executions
// whose paths pass through the node, and every such execution descends
// from a pending task whose script has this node's path as a prefix),
// so it is freed immediately.
struct Node {
  std::vector<int> enabled;    // allowed set recorded at first visit
  std::vector<int> backtrack;  // picks that must (eventually) be tried
  std::vector<int> done;       // picks taken, launched, or pruned asleep
  // Next transition of every process from this state, from the latest
  // execution through it. State-determined: any execution sharing the
  // prefix sees the same per-process next transition.
  std::map<int, analysis::StepInfo> next;
  std::map<int, int> child;  // pick -> node index of the reached state
  // Sleep set in force after taking a pick from here, FROZEN when that
  // pick is first taken/launched — the launch-order asymmetry that
  // keeps sleep-set pruning acyclic (a branch only ever sleeps on
  // branches launched strictly before it).
  std::map<int, std::vector<int>> edge_sleep;
  int live = 0;
};

// One pending branch: replay `script`, then run free. Workers fill in
// the observed execution; the integrator consumes it.
struct Task {
  std::vector<int> script;

  std::vector<int> trace;
  std::vector<analysis::StepInfo> steps;
  std::vector<std::vector<int>> enabled;
  std::uint64_t cell_base = 0;  // the execution's CellIdArena base
  Sig sig{0, 0};  // class-orbit signature, computed worker-side
  bool pass = false;
  std::exception_ptr error;
};

// Canonical DFS order: lexicographic by pick at the first differing
// position; a strict prefix sorts AFTER its extensions (deepest-first,
// so the frontier drains like a DFS stack and stays small).
bool canonical_before(const std::vector<int>& a, const std::vector<int>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return a.size() > b.size();
}

// The engine: a frontier of pending branches explored wave by wave.
// Each wave dispatches up to wave_size canonically-smallest tasks, runs
// them on the worker pool, then integrates the results serially in
// canonical order — growing the tree, running race analysis, and
// launching the discovered reversals as new tasks. Because wave
// composition and integration order depend only on wave_size (never on
// jobs or worker timing), every statistic and witness is identical for
// every jobs value.
class Engine {
 public:
  Engine(const DporScenario& scenario, const DporOptions& opts)
      : scenario_(scenario),
        opts_(opts),
        dep_(opts.dependency),
        covering_(opts.symmetry.active() || opts.class_covering) {
    // Built up front: workers read perms_ concurrently in run_one.
    if (covering_) build_perms();
  }

  DporResult run() {
    push_task(std::make_unique<Task>());  // root: empty script
    std::uint64_t dispatched = 0;
    std::vector<std::unique_ptr<Task>> wave;
    while (!frontier_.empty()) {
      if (dispatched >= opts_.max_schedules) {
        result_.stats.exhausted = false;
        break;
      }
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(static_cast<std::uint64_t>(opts_.wave_size),
                                  opts_.max_schedules - dispatched));
      wave.clear();
      while (wave.size() < want && !frontier_.empty()) {
        std::pop_heap(frontier_.begin(), frontier_.end(), &Engine::frontier_after);
        wave.push_back(std::move(frontier_.back()));
        frontier_.pop_back();
      }
      ++result_.stats.waves;
      for (const auto& t : wave) {
        if (opts_.on_execution) opts_.on_execution(t->script, dispatched);
        ++dispatched;
      }
      run_wave(wave);
      bool stopped = false;
      for (auto& t : wave) {
        if (t->error) std::rethrow_exception(t->error);
        integrate(*t);
        if (!result_.ok) {
          stopped = true;
          break;
        }
      }
      if (stopped) break;
    }
    return std::move(result_);
  }

 private:
  // --- frontier ---

  void push_task(std::unique_ptr<Task> t) {
    frontier_.push_back(std::move(t));
    std::push_heap(frontier_.begin(), frontier_.end(), &Engine::frontier_after);
  }

  // --- worker pool ---

  // Each worker pins itself to its own allowed CPU, so a worker's
  // lockstep handoffs (SimScheduler::run pins the process threads to the
  // worker's CPU) never share a CPU with another worker's.
  void run_wave(std::vector<std::unique_ptr<Task>>& wave) {
    const int workers = std::max(
        1, std::min(dpor_workers(opts_.jobs), static_cast<int>(wave.size())));
    if (workers == 1) {
      for (auto& t : wave) run_one(*t, 0);
      return;
    }
    std::atomic<std::size_t> cursor{0};
    auto drain = [&](int worker) {
      const auto w = static_cast<std::size_t>(worker);
      const CpuPin pin(w < cpus_.size() ? cpus_[w] : -1);
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= wave.size()) return;
        run_one(*wave[i], worker);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers) - 1);
    for (int w = 1; w < workers; ++w) {
      pool.emplace_back(drain, w);
    }
    drain(0);
    for (std::thread& th : pool) th.join();
  }

  void run_one(Task& t, int worker) {
    t_dpor_worker = worker;
    try {
      // Private id block: cells this execution constructs get ids at
      // stable offsets from the base, independent of worker
      // interleaving (class signatures key on the offsets).
      CellIdArena arena(1u << 20);
      t.cell_base = arena.base();
      DporPolicy policy(t.script, opts_.symmetry);
      fault::FaultInjectingPolicy faulty(policy, opts_.plan);
      SchedulePolicy& top = opts_.plan.empty()
                                ? static_cast<SchedulePolicy&>(policy)
                                : static_cast<SchedulePolicy&>(faulty);
      SimScheduler sim(top);
      auto verifier = scenario_(sim);
      if (!opts_.plan.empty()) faulty.attach(sim);
      analysis::TraceRecorder recorder(tee_for(worker));
      sim.set_observer(&recorder);
      sim.run();
      t.trace = sim.trace();
      t.steps = recorder.finalize(t.trace);
      t.enabled = policy.take_enabled();
      t.pass = verifier();
      // Signature computation is the expensive covering step (O(R! n^2)
      // worst case); doing it here keeps it on the worker pool. Only
      // the set insert stays on the serial integrator.
      if (t.pass && covering_) t.sig = class_signature(t);
    } catch (...) {
      t.error = std::current_exception();
    }
    t_dpor_worker = 0;
  }

  AccessObserver* tee_for(int worker) {
    if (!opts_.tee_for_worker) return nullptr;
    std::lock_guard<std::mutex> lock(tee_mu_);
    if (static_cast<std::size_t>(worker) >= tees_.size()) {
      tees_.resize(static_cast<std::size_t>(worker) + 1, nullptr);
      tee_made_.resize(static_cast<std::size_t>(worker) + 1, 0);
    }
    if (tee_made_[static_cast<std::size_t>(worker)] == 0) {
      tees_[static_cast<std::size_t>(worker)] = opts_.tee_for_worker(worker);
      tee_made_[static_cast<std::size_t>(worker)] = 1;
    }
    return tees_[static_cast<std::size_t>(worker)];
  }

  // --- tree ---

  int alloc_node() {
    if (!free_nodes_.empty()) {
      const int id = free_nodes_.back();
      free_nodes_.pop_back();
      return id;
    }
    arena_.emplace_back();
    return static_cast<int>(arena_.size()) - 1;
  }

  void free_node(int id) {
    arena_[static_cast<std::size_t>(id)] = Node{};
    free_nodes_.push_back(id);
  }

  // --- integration (single-threaded, canonical order) ---

  void integrate(Task& task) {
    DporStats& stats = result_.stats;
    const std::vector<int>& trace = task.trace;
    const std::vector<analysis::StepInfo>& steps = task.steps;
    const std::size_t n = trace.size();
    ++stats.schedules;
    stats.max_points = std::max<std::uint64_t>(stats.max_points, n);
    COMPREG_CHECK(task.enabled.size() == n,
                  "policy saw %zu decisions but the trace has %zu steps",
                  task.enabled.size(), n);
    if (stats.schedules == 1) {
      // Naive bound: the number of complete interleavings the plain
      // enumerator would visit — the multinomial coefficient of the
      // per-process step counts, n! / prod(n_p!), in log10 via lgamma.
      // (An estimate: under faults, step counts can vary by schedule.)
      std::map<int, std::uint64_t> per_proc;
      for (int p : trace) ++per_proc[p];
      double log_e = std::lgamma(static_cast<double>(n) + 1.0);
      for (const auto& [p, cnt] : per_proc) {
        log_e -= std::lgamma(static_cast<double>(cnt) + 1.0);
      }
      stats.naive_log10 = log_e / std::numbers::ln10;
    }

    // Grow the tree along the trace; record the node at every depth.
    path_.assign(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      int id;
      if (i == 0) {
        if (root_ < 0) {
          root_ = alloc_node();
          arena_[static_cast<std::size_t>(root_)].enabled = task.enabled[0];
        }
        id = root_;
      } else {
        const int parent = path_[i - 1];
        Node& pn = arena_[static_cast<std::size_t>(parent)];
        auto it = pn.child.find(trace[i - 1]);
        if (it != pn.child.end()) {
          id = it->second;
        } else {
          id = alloc_node();
          arena_[static_cast<std::size_t>(id)].enabled = task.enabled[i];
          arena_[static_cast<std::size_t>(parent)].child[trace[i - 1]] = id;
        }
      }
      path_[i] = id;
      Node& nd = arena_[static_cast<std::size_t>(id)];
      add_unique(nd.backtrack, trace[i]);
      add_unique(nd.done, trace[i]);
    }
    // Refresh per-node next-transition info along the whole path.
    {
      std::map<int, analysis::StepInfo> next;
      for (std::size_t i = n; i-- > 0;) {
        next[trace[i]] = steps[i];
        arena_[static_cast<std::size_t>(path_[i])].next = next;
      }
    }

    if (!task.pass) {
      result_.ok = false;
      result_.violation_schedule = trace;
      return;
    }

    // Class-orbit covering: an execution whose Mazurkiewicz class is a
    // reader-permutation image of one already analyzed spawns nothing —
    // its race reversals are permutation images of reversals the
    // covering execution already scheduled. (Its verdict was still
    // checked above, and the tree bookkeeping for its taken picks still
    // happened, so only the redundant subtree is cut.) With
    // class_covering and no symmetry the group is trivial and this
    // prunes exact class re-explorations only.
    if (covering_ && !seen_orbits_.insert(task.sig).second) {
      ++stats.orbit_hits;
      release(task);
      return;
    }

    race_analysis(task);
    launch_pass(task);
    release(task);
  }

  // Canonical signature of the execution's Mazurkiewicz class,
  // invariant under permutation of the symmetry group. The class is the
  // labeled partial order (dependence DAG) of the execution's steps;
  // its canonical form is the lexicographically minimal linearization
  // (greedy: always the ready event of the smallest process id), hashed
  // event by event — process id, then each access's kind and cell —
  // and minimized over every permutation of the group. Cells
  // constructed by the execution are identified by their stable
  // CellIdArena offset (each execution constructs the scenario fresh
  // and deterministically, so "the k-th register built" is the same
  // logical register in every execution); pre-existing cells keep
  // their absolute id, which IS stable across executions. Neither is
  // permuted with the group, which keeps the signature conservative:
  // if group members touch member-identifying cells, permutation
  // images simply hash apart and no covering happens (reduction lost,
  // soundness kept).
  // Runs on worker threads: everything it touches is the (immutable)
  // task, dep_, opts_ and the pre-built perms_ — plus local scratch.
  Sig class_signature(const Task& task) const {
    const std::vector<int>& trace = task.trace;
    const std::vector<analysis::StepInfo>& steps = task.steps;
    const std::size_t n = trace.size();

    const auto cell_key = [&task](std::uint64_t cell) -> std::uint64_t {
      if (cell == 0) return ~0ull;  // undeclared
      // Arena offsets stay far below 2^62; absolute ids of cells built
      // before the exploration are also well below it, so the tag bit
      // keeps the two spaces disjoint.
      if (cell >= task.cell_base) {
        return (cell - task.cell_base) | (1ull << 62);
      }
      return cell;
    };

    // Direct-dependence DAG: per-process program order (consecutive
    // chain edges) plus every dependent cross-process pair.
    std::vector<std::vector<int>> succs(n);
    std::vector<int> indeg(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        const bool chain = trace[i] == trace[j];
        if (chain) {
          // Only the latest same-process predecessor; earlier ones are
          // covered transitively by the chain.
          bool latest = true;
          for (std::size_t k = i + 1; k < j; ++k) {
            if (trace[k] == trace[i]) {
              latest = false;
              break;
            }
          }
          if (!latest) continue;
        } else if (!dep_.dependent(steps[i], steps[j])) {
          continue;
        }
        succs[i].push_back(static_cast<int>(j));
        ++indeg[j];
      }
    }

    const auto mix = [](std::uint64_t& h, std::uint64_t v) {
      h = (h ^ v) * 0x100000001b3ull;
    };
    Sig best{~0ull, ~0ull};
    for (const std::vector<int>& perm : perms_) {
      const auto relabel = [&](int p) {
        return opts_.symmetry.member(p)
                   ? opts_.symmetry.first +
                         perm[static_cast<std::size_t>(
                             p - opts_.symmetry.first)]
                   : p;
      };
      std::vector<int> scratch_indeg = indeg;
      std::vector<int> ready;
      for (std::size_t i = 0; i < n; ++i) {
        if (scratch_indeg[i] == 0) {
          ready.push_back(static_cast<int>(i));
        }
      }
      std::uint64_t h1 = 0xcbf29ce484222325ull;
      std::uint64_t h2 = 0x84222325cbf29ce4ull;
      for (std::size_t done = 0; done < n; ++done) {
        // At most one ready event per process (chain edges), so the
        // minimum by relabeled process id is unique.
        std::size_t pick = 0;
        for (std::size_t k = 1; k < ready.size(); ++k) {
          if (relabel(trace[static_cast<std::size_t>(ready[k])]) <
              relabel(trace[static_cast<std::size_t>(ready[pick])])) {
            pick = k;
          }
        }
        const int e = ready[pick];
        ready[pick] = ready.back();
        ready.pop_back();
        const analysis::StepInfo& st = steps[static_cast<std::size_t>(e)];
        const std::uint64_t pv = static_cast<std::uint64_t>(
            relabel(trace[static_cast<std::size_t>(e)]));
        mix(h1, pv);
        mix(h2, pv + 0x9e37ull);
        mix(h1, static_cast<std::uint64_t>(st.accesses.size()));
        for (const Access& a : st.accesses) {
          const std::uint64_t ck = cell_key(a.decl.cell);
          const std::uint64_t av =
              (ck << 1) | (a.kind == AccessKind::kWrite ? 1u : 0u);
          mix(h1, av);
          mix(h2, av * 0x9e3779b97f4a7c15ull + 1);
        }
        for (int s : succs[static_cast<std::size_t>(e)]) {
          if (--scratch_indeg[static_cast<std::size_t>(s)] == 0) {
            ready.push_back(s);
          }
        }
      }
      best = std::min(best, Sig{h1, h2});
    }
    return best;
  }

  void build_perms() {
    if (!perms_.empty()) return;
    const int count = opts_.symmetry.active() ? opts_.symmetry.count : 1;
    std::vector<int> p(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<int>(i);
    do {
      perms_.push_back(p);
    } while (std::next_permutation(p.begin(), p.end()));
  }

  // Happens-before via vector clocks over the dependency relation;
  // schedule reversals (quotiented by symmetry) as backtrack picks.
  void race_analysis(const Task& task) {
    DporStats& stats = result_.stats;
    const std::vector<int>& trace = task.trace;
    const std::vector<analysis::StepInfo>& steps = task.steps;
    const std::size_t n = trace.size();
    int num_procs = 0;
    for (int q : trace) num_procs = std::max(num_procs, q + 1);
    if (n > 0 && !task.enabled[0].empty()) {
      num_procs = std::max(num_procs, task.enabled[0].back() + 1);
    }
    if (opts_.symmetry.active()) {
      num_procs =
          std::max(num_procs, opts_.symmetry.first + opts_.symmetry.count);
    }
    const std::size_t np = static_cast<std::size_t>(num_procs);

    // First trace position of every process (the symmetry quotient
    // needs "had p started by depth j?").
    first_occ_.assign(np, -1);
    for (std::size_t i = n; i-- > 0;) {
      first_occ_[static_cast<std::size_t>(trace[i])] = static_cast<int>(i);
    }

    // clock[i][q] = number of q-steps happens-before-or-equal step i;
    // stepnum[i] = 1-based index of step i within its process.
    std::vector<std::vector<std::uint32_t>> clock(n);
    std::vector<std::uint32_t> stepnum(n, 0);
    std::vector<std::uint32_t> count(np, 0);
    std::vector<int> last_of_proc(np, -1);
    int last_universal = -1;
    int last_global = -1;
    struct CellState {
      int last_write = -1;
      std::map<int, int> last_read_by;  // proc -> step index
    };
    std::map<std::uint64_t, CellState> cells;
    std::vector<int> cand;

    for (std::size_t i = 0; i < n; ++i) {
      const int p = trace[i];
      const analysis::StepInfo& st = steps[i];
      stepnum[i] = ++count[static_cast<std::size_t>(p)];

      // Latest dependent predecessor per category.
      cand.clear();
      auto add_cand = [&cand](int j) {
        if (j >= 0) add_unique(cand, j);
      };
      add_cand(last_of_proc[static_cast<std::size_t>(p)]);
      add_cand(last_universal);
      if (analysis::step_universal(st)) {
        for (std::size_t q = 0; q < np; ++q) add_cand(last_of_proc[q]);
      } else {
        if (analysis::step_global(st)) add_cand(last_global);
        for (const Access& a : st.accesses) {
          CellState& cs = cells[a.decl.cell];
          add_cand(cs.last_write);
          if (a.kind == AccessKind::kWrite ||
              dep_.options().conservative_reads) {
            for (const auto& [q, j] : cs.last_read_by) add_cand(j);
          }
        }
      }

      // Clock of step i = join of predecessors, plus itself.
      std::vector<std::uint32_t> ci(np, 0);
      for (int j : cand) {
        const std::vector<std::uint32_t>& cj =
            clock[static_cast<std::size_t>(j)];
        for (std::size_t q = 0; q < np; ++q) ci[q] = std::max(ci[q], cj[q]);
      }
      ci[static_cast<std::size_t>(p)] = stepnum[i];

      // A predecessor j of another process is a reversible race iff no
      // other predecessor already covers it (i.e. the j -> i edge is
      // happens-before-adjacent). Extra (non-adjacent) reversals are
      // sound — only the *presence* of the latest one matters.
      for (int j : cand) {
        const int pj = trace[static_cast<std::size_t>(j)];
        if (pj == p) continue;
        bool covered = false;
        for (int k : cand) {
          if (k == j) continue;
          if (clock[static_cast<std::size_t>(k)][static_cast<std::size_t>(
                  pj)] >= stepnum[static_cast<std::size_t>(j)]) {
            covered = true;
            break;
          }
        }
        if (covered) continue;
        if (opts_.depth_bound >= 0 && j >= opts_.depth_bound) {
          stats.depth_limited = true;
          continue;
        }
        insert_backtrack(static_cast<std::size_t>(j), p);
      }

      // Update latest-per-category state.
      clock[i] = std::move(ci);
      last_of_proc[static_cast<std::size_t>(p)] = static_cast<int>(i);
      if (analysis::step_universal(st)) last_universal = static_cast<int>(i);
      if (analysis::step_global(st)) last_global = static_cast<int>(i);
      for (const Access& a : st.accesses) {
        CellState& cs = cells[a.decl.cell];
        if (a.kind == AccessKind::kWrite) {
          cs.last_write = static_cast<int>(i);
          cs.last_read_by.clear();
        } else {
          cs.last_read_by[p] = static_cast<int>(i);
        }
      }
    }
  }

  // Try process `want` from the state before depth j, so that the later
  // race side runs first. Under symmetry a not-yet-started group member
  // is interchangeable with every other not-yet-started one, so the
  // pick is remapped onto the canonical (lowest not-yet-started)
  // representative — the only one the filtered enabled set admits.
  void insert_backtrack(std::size_t j, int want) {
    DporStats& stats = result_.stats;
    Node& nj = arena_[static_cast<std::size_t>(path_[j])];
    // "Unstarted at the state before depth j": first trace position at
    // or after j (== j means it starts by taking THIS edge) or absent.
    auto unstarted_at = [this, j](int p) {
      const int f = first_occ_[static_cast<std::size_t>(p)];
      return f < 0 || static_cast<std::size_t>(f) >= j;
    };
    int pick = want;
    if (opts_.symmetry.active() && opts_.symmetry.member(want) &&
        unstarted_at(want)) {
      // The filtered enabled set admits exactly one unstarted group
      // member — the canonical representative `want` is remapped onto.
      // (It may be the taken edge itself; the insertion below is then a
      // no-op, correctly: the canonical form of the reversal lies in
      // the already-explored subtree.)
      for (int g : nj.enabled) {
        if (opts_.symmetry.member(g) && unstarted_at(g)) {
          pick = g;
          break;
        }
      }
      if (pick != want) ++stats.symmetry_remaps;
    }
    if (contains(nj.enabled, pick)) {
      if (!contains(nj.backtrack, pick)) {
        nj.backtrack.push_back(pick);
        ++stats.backtrack_points;
      }
    } else {
      for (int q : nj.enabled) {
        if (!contains(nj.backtrack, q)) {
          nj.backtrack.push_back(q);
          ++stats.backtrack_points;
        }
      }
    }
  }

  // Walk the path once more: freeze the sleep set carried over each
  // newly taken edge, evaluate every pending backtrack pick against the
  // sleep set in force at its node, and launch the survivors as new
  // tasks (marking them done — a pick is launched at most once).
  void launch_pass(const Task& task) {
    DporStats& stats = result_.stats;
    const std::vector<int>& trace = task.trace;
    const std::size_t n = trace.size();
    std::vector<int> sleep_here;  // entering sleep of the node at depth j
    std::vector<int> pending;
    std::vector<int> entering;
    for (std::size_t j = 0; j < n; ++j) {
      Node& nd = arena_[static_cast<std::size_t>(path_[j])];
      // Freeze the sleep set over the taken edge before launching new
      // siblings at this node: the canonical continuation counts as
      // launched first, and `done` here holds only strictly earlier
      // launches.
      if (nd.edge_sleep.find(trace[j]) == nd.edge_sleep.end()) {
        nd.edge_sleep.emplace(trace[j],
                              child_sleep(nd, sleep_here, trace[j]));
      }
      pending.clear();
      for (int q : nd.backtrack) {
        if (!contains(nd.done, q)) pending.push_back(q);
      }
      std::sort(pending.begin(), pending.end());
      for (int q : pending) {
        if (opts_.sleep_sets && contains(sleep_here, q)) {
          // Sleeping: every schedule it leads to is Mazurkiewicz-
          // equivalent to one reached from a branch launched earlier.
          ++stats.sleep_set_hits;
          nd.done.push_back(q);
          continue;
        }
        nd.edge_sleep.emplace(q, child_sleep(nd, sleep_here, q));
        nd.done.push_back(q);
        auto t = std::make_unique<Task>();
        t->script.assign(trace.begin(),
                         trace.begin() + static_cast<std::ptrdiff_t>(j));
        t->script.push_back(q);
        for (std::size_t d = 0; d <= j; ++d) {
          ++arena_[static_cast<std::size_t>(path_[d])].live;
        }
        push_task(std::move(t));
      }
      sleep_here = nd.edge_sleep.at(trace[j]);
    }
  }

  // Sleep set entering the child reached by `pick`: everything already
  // asleep here plus every sibling launched before `pick`, kept asleep
  // only while provably independent of `pick`'s next transition
  // (unknown transitions wake conservatively).
  std::vector<int> child_sleep(const Node& nd,
                               const std::vector<int>& sleep_here,
                               int pick) const {
    std::vector<int> out;
    if (!opts_.sleep_sets) return out;
    auto pick_next = nd.next.find(pick);
    if (pick_next == nd.next.end()) return out;
    std::vector<int> entering = sleep_here;
    for (int q : nd.done) {
      if (q != pick) add_unique(entering, q);
    }
    for (int q : entering) {
      auto qn = nd.next.find(q);
      if (qn == nd.next.end()) continue;  // unknown: q wakes up
      if (!dep_.dependent(qn->second, pick_next->second)) {
        out.push_back(q);
      }
    }
    return out;
  }

  // Drop this task's claim on its script path and free every node left
  // with no pending task in its subtree — no future execution can pass
  // through such a node, so no future insertion can land there.
  void release(const Task& task) {
    const std::size_t len = task.script.size();
    for (std::size_t d = 0; d < len; ++d) {
      --arena_[static_cast<std::size_t>(path_[d])].live;
    }
    for (std::size_t i = path_.size(); i-- > 0;) {
      const int id = path_[i];
      if (arena_[static_cast<std::size_t>(id)].live > 0) break;
      if (i == 0) {
        root_ = -1;
      } else {
        arena_[static_cast<std::size_t>(path_[i - 1])].child.erase(
            task.trace[i - 1]);
      }
      free_node(id);
    }
  }

  const DporScenario& scenario_;
  const DporOptions& opts_;
  const analysis::DependencyModel dep_;
  // True when class-orbit covering is in force (symmetry active or
  // class_covering requested).
  const bool covering_;
  DporResult result_;

  // Min-heap on the canonical DFS key (std::*_heap are max-heaps, so
  // the comparator is the reverse of canonical_before).
  std::vector<std::unique_ptr<Task>> frontier_;
  static bool frontier_after(const std::unique_ptr<Task>& a,
                             const std::unique_ptr<Task>& b) {
    return canonical_before(b->script, a->script);
  }

  std::vector<Node> arena_;
  std::vector<int> free_nodes_;
  int root_ = -1;
  std::vector<int> path_;       // node id per depth of the current trace
  std::vector<int> first_occ_;  // first trace position per proc

  // Class-orbit covering state. perms_ is built before workers start
  // and read-only afterwards; seen_orbits_ is touched only by the
  // integrator.
  std::unordered_set<Sig, SigHash> seen_orbits_;
  std::vector<std::vector<int>> perms_;  // permutations of [0, count)

  std::mutex tee_mu_;
  std::vector<AccessObserver*> tees_;
  std::vector<char> tee_made_;
  const std::vector<int> cpus_ = allowed_cpus();
};

}  // namespace

DporResult explore_dpor(const DporScenario& scenario, const DporOptions& opts) {
  COMPREG_CHECK(opts.plan.hangs.empty(),
                "DPOR cannot explore hang plans: every schedule would wedge");
  COMPREG_CHECK(opts.jobs >= 1, "DPOR jobs must be >= 1 (got %d)", opts.jobs);
  COMPREG_CHECK(opts.wave_size >= 1, "DPOR wave_size must be >= 1 (got %d)",
                opts.wave_size);
  if (opts.symmetry.active()) {
    COMPREG_CHECK(opts.symmetry.count <= 6,
                  "reader symmetry supports at most 6 group members "
                  "(class-orbit signatures cost count! passes per "
                  "execution; got %d)",
                  opts.symmetry.count);
    for (const fault::CrashSpec& c : opts.plan.crashes) {
      COMPREG_CHECK(!opts.symmetry.member(c.proc),
                    "fault plan crashes proc %d inside the symmetry group: "
                    "the group members are no longer interchangeable",
                    c.proc);
    }
    for (const fault::StallSpec& s : opts.plan.stalls) {
      COMPREG_CHECK(!opts.symmetry.member(s.proc),
                    "fault plan stalls proc %d inside the symmetry group: "
                    "the group members are no longer interchangeable",
                    s.proc);
    }
  }
  Engine engine(scenario, opts);
  return engine.run();
}

}  // namespace compreg::sched
