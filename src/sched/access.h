// Labeled schedule points: the access-descriptor layer of the
// protocol-conformance analyzer.
//
// The paper's substrate assumption (Section 2) is that all shared state
// is reached only through multi-reader *single-writer* atomic register
// operations. Every register in src/registers owns an AccessLabel —
// a unique cell id plus its declared discipline — and passes an Access
// descriptor to sched::point() on every read/write. An AccessObserver
// (src/analysis) installed with set_access_observer() then sees the
// fully labeled access stream of an execution: which cell, which
// direction, which reader slot, which process, and where in the
// schedule — enough to certify register-usage discipline mechanically
// rather than hoping a linearizability check happens to expose a
// protocol bug.
//
// Baselines that deliberately step outside the substrate (seqlock's
// writer lock, the mutex baseline) declare their shared cells
// Discipline::kMrmw; the analyzer tracks but does not flag them.
#pragma once

#include <atomic>
#include <cstdint>

namespace compreg::sched {

enum class AccessKind : std::uint8_t { kRead, kWrite };

// The usage discipline a cell promises at construction. The
// conformance checker verifies the promise against actual executions.
enum class Discipline : std::uint8_t {
  kSwmr,  // single writer: at most one process may ever write the cell
  kSwsr,  // single writer AND single reader (Simpson leaf registers)
  kMrmw,  // declared multi-writer (outside the paper's substrate)
};

// Static identity of one base register ("cell"). Cell ids are unique
// per process lifetime and never reused; id 0 means "undeclared" and is
// flagged by the checker.
struct CellDecl {
  std::uint64_t cell = 0;
  const char* owner = "?";  // owning register's label (string literal)
  Discipline discipline = Discipline::kSwmr;
  int readers = 0;  // declared reader-slot capacity; 0 = unslotted
  // Accesses to this cell are ordered against accesses to EVERY other
  // global-order cell, not just its own: the cell fronts shared hidden
  // state beyond the register value (SimNet's message queue, clock and
  // fault RNG sit behind both its send and poll cells). The DPOR
  // dependency relation (src/analysis/dependency.h) treats any two
  // global-order accesses as dependent.
  bool global_order = false;
};

// One labeled shared-register access, carried by value into point().
struct Access {
  CellDecl decl;
  AccessKind kind = AccessKind::kRead;
  int slot = -1;  // reader slot for slotted cells; -1 = unslotted access
};

// Allocates a fresh cell id. Thread-safe.
std::uint64_t new_cell_id();

// Scoped thread-local allocation block: while alive, new_cell_id()
// calls from THIS thread hand out sequential ids from a privately
// reserved range instead of the shared counter. Scenario constructions
// are deterministic, so every run of the same scenario under an arena
// yields the same offsets `cell - base()` — a schedule- and
// thread-independent identity for "the k-th register this scenario
// builds". The DPOR engine wraps each execution in one (class-orbit
// signatures key on the offsets); ids stay globally unique because the
// range is reserved from the shared counter. Allocations past
// `capacity` fall back to the shared counter (unique but no longer
// offset-stable). Non-reentrant per thread.
class CellIdArena {
 public:
  explicit CellIdArena(std::uint64_t capacity);
  ~CellIdArena();

  CellIdArena(const CellIdArena&) = delete;
  CellIdArena& operator=(const CellIdArena&) = delete;

  std::uint64_t base() const { return base_; }

  // Whether this thread's new_cell_id() draws from an open arena's
  // range (one with ids left).
  static bool active();

 private:
  std::uint64_t base_;
  std::uint64_t prev_next_;
  std::uint64_t prev_end_;
};

// The identity a register holds for its lifetime; construct one per
// base register and build Access descriptors from it at each access.
class AccessLabel {
 public:
  AccessLabel(const char* owner, Discipline discipline, int readers,
              bool global_order = false)
      : decl_{new_cell_id(), owner, discipline, readers, global_order} {}

  const CellDecl& decl() const { return decl_; }
  std::uint64_t cell() const { return decl_.cell; }

  Access read(int slot = -1) const {
    return Access{decl_, AccessKind::kRead, slot};
  }
  Access write() const { return Access{decl_, AccessKind::kWrite, -1}; }

 private:
  CellDecl decl_;
};

// Receives every labeled access while installed. `proc` is the virtual
// process id under the simulator, the workload-assigned proc id on
// instrumented native threads, or -1 for an unidentified thread.
// `sched_pos` is the simulator's schedule position (trace index) at the
// access, or 0 outside the simulator — observers keep their own stream
// index for native runs. on_access() may be called concurrently from
// native threads; implementations must synchronize internally (under
// the simulator calls are serialized by the lockstep).
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  virtual void on_access(const Access& access, int proc,
                         std::uint64_t sched_pos) = 0;
};

namespace detail {
// The process-global observer slot behind set_access_observer().
inline std::atomic<AccessObserver*> g_access_observer{nullptr};
}  // namespace detail

// Install/read the process-global observer. Installation must happen
// while no instrumented code is running (between executions); the
// pointer itself is read with acquire ordering from every point().
void set_access_observer(AccessObserver* observer);
inline AccessObserver* access_observer() {
  // acquire: pairs with set_access_observer's release store, so a
  // thread that sees the observer also sees it fully constructed.
  return detail::g_access_observer.load(std::memory_order_acquire);
}

// RAII installation for the duration of one checked execution.
class ScopedAccessObserver {
 public:
  explicit ScopedAccessObserver(AccessObserver* observer)
      : prev_(access_observer()) {
    set_access_observer(observer);
  }
  ~ScopedAccessObserver() { set_access_observer(prev_); }

  ScopedAccessObserver(const ScopedAccessObserver&) = delete;
  ScopedAccessObserver& operator=(const ScopedAccessObserver&) = delete;

 private:
  AccessObserver* prev_;
};

}  // namespace compreg::sched
