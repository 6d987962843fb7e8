// Seeded mutant for tools/analyze --self-test: the memorder pass MUST
// flag this file and no other pass may fire. bump() uses the implicit
// seq_cst default; peek() weakens to relaxed with no justification
// comment on or above the op line. No loops, locks, or clustered
// atomics.
//
// This header is never compiled into the build; it exists only as
// analyzer input.
//
// audit: exempt(schedpoint, memorder mutant, never run by the simulator)
#pragma once

#include <atomic>
#include <cstdint>

namespace compreg::mutants {

class SilentOrders {
 public:
  void bump() {
    c_.fetch_add(1);
  }

  std::uint64_t peek() const {
    return c_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> c_{0};
};

}  // namespace compreg::mutants
