#include "sched/access.h"

#include <atomic>

namespace compreg::sched {

namespace {

// Cell ids start at 1; 0 is reserved for "undeclared".
std::atomic<std::uint64_t> g_next_cell_id{1};

// Active CellIdArena range of this thread; next == end means none.
thread_local std::uint64_t t_arena_next = 0;
thread_local std::uint64_t t_arena_end = 0;

}  // namespace

std::uint64_t new_cell_id() {
  if (t_arena_next != t_arena_end) return t_arena_next++;
  return g_next_cell_id.fetch_add(1, std::memory_order_relaxed);
}

CellIdArena::CellIdArena(std::uint64_t capacity)
    : base_(g_next_cell_id.fetch_add(capacity, std::memory_order_relaxed)),
      prev_next_(t_arena_next),
      prev_end_(t_arena_end) {
  t_arena_next = base_;
  t_arena_end = base_ + capacity;
}

bool CellIdArena::active() { return t_arena_next != t_arena_end; }

CellIdArena::~CellIdArena() {
  t_arena_next = prev_next_;
  t_arena_end = prev_end_;
}

void set_access_observer(AccessObserver* observer) {
  detail::g_access_observer.store(observer, std::memory_order_release);
}

}  // namespace compreg::sched
