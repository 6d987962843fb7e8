// Seeded mutant for tools/analyze --self-test: the waitfree pass MUST
// flag the unbounded spin below, which sits in a member template with a
// `decltype(auto)` return type. A lexer that mistakes `decltype(...)`
// for the parameter list sees no function scope here and skips the loop
// (and would equally drop an exemption written inside it). No other
// pass may fire: explicit seq_cst orders, a single atomic member,
// nothing that locks, sleeps, or allocates.
//
// This header is never compiled into the build; it exists only as
// analyzer input.
//
// audit: exempt(schedpoint, waitfree mutant, never run by the simulator)
#pragma once

#include <atomic>
#include <cstdint>

namespace compreg::mutants {

class SpinVisitor {
 public:
  // Lock-free, NOT wait-free: retries until no concurrent bump lands.
  template <typename F>
  decltype(auto) visit(F&& f) {
    for (;;) {
      std::uint64_t cur = v_.load(std::memory_order_seq_cst);
      if (v_.load(std::memory_order_seq_cst) == cur) return f(cur);
    }
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

}  // namespace compreg::mutants
