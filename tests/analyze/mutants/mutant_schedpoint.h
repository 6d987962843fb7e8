// Seeded mutant for tools/analyze --self-test: the schedpoint pass MUST
// flag quiet_read() — an atomic load with no labeled schedule point in
// its function, invisible to the simulator — and no other pass may
// fire. The constructor and destructor are skipped by rule, loud_read()
// announces its point, and maintenance() carries a reasoned exemption.
// Every op states its order (memorder silent); one atomic member
// (layout silent); no loops, locks or allocation.
//
// This header is never compiled into the build; it exists only as
// analyzer input.
#pragma once

#include <atomic>

namespace compreg::mutants {

class Sneaky {
 public:
  Sneaky() { v_.store(0, std::memory_order_seq_cst); }
  ~Sneaky() { (void)v_.load(std::memory_order_seq_cst); }

  int quiet_read() { return v_.load(std::memory_order_seq_cst); }

  int loud_read() {
    sched::point(access_.read(0));
    return v_.load(std::memory_order_seq_cst);
  }

  // audit: exempt(schedpoint, writer-private maintenance, not shared state)
  void maintenance() { v_.exchange(1, std::memory_order_seq_cst); }

 private:
  std::atomic<int> v_{0};
};

}  // namespace compreg::mutants
