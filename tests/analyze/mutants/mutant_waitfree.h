// Seeded mutant for tools/analyze --self-test: the waitfree pass MUST
// flag this file (unbounded spin + recursion cycle) and no other pass
// may fire. Atomic ops are explicit seq_cst (memorder census only),
// there is a single atomic member (no layout cluster), and nothing
// locks, sleeps, or allocates (blocking silent).
//
// This header is never compiled into the build; it exists only as
// analyzer input.
//
// audit: exempt(schedpoint, waitfree mutant, never run by the simulator)
#pragma once

#include <atomic>
#include <cstdint>

namespace compreg::mutants {

class SpinForever {
 public:
  // Lock-free, NOT wait-free: the CAS loop has no static bound and no
  // COMPREG_CHECK asserting one.
  std::uint64_t next() {
    for (;;) {
      std::uint64_t cur = v_.load(std::memory_order_seq_cst);
      if (v_.compare_exchange_weak(cur, cur + 1,
                                   std::memory_order_seq_cst,
                                   std::memory_order_seq_cst)) {
        return cur;
      }
    }
  }

  // Mutual recursion with no statically visible bound.
  std::uint64_t helper_a(std::uint64_t n) {
    if (n == 0) return v_.load(std::memory_order_seq_cst);
    return helper_b(n - 1);
  }
  std::uint64_t helper_b(std::uint64_t n) {
    if (n == 0) return 0;
    return helper_a(n - 1);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

}  // namespace compreg::mutants
