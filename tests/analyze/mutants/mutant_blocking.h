// Seeded mutant for tools/analyze --self-test: the blocking pass MUST
// flag this file (mutex acquisition + allocation on an op path) and no
// other pass may fire. No loops or recursion (waitfree silent), no
// atomics (memorder and layout silent).
//
// This header is never compiled into the build; it exists only as
// analyzer input.
//
// audit: exempt(schedpoint, blocking mutant, never run by the simulator)
#pragma once

#include <cstdint>
#include <mutex>

namespace compreg::mutants {

class HiddenLock {
 public:
  void set(std::uint64_t x) {
    std::lock_guard<std::mutex> g(mu_);
    v_ = x;
    last_ = new std::uint64_t(x);
  }

  std::uint64_t get() const {
    std::lock_guard<std::mutex> g(mu_);
    return v_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t v_{0};
  std::uint64_t* last_{nullptr};
};

}  // namespace compreg::mutants
