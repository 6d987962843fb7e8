// Per-thread operation counters for shared base-register accesses.
//
// The paper's time-complexity claims (Section 4.1) are *operation
// counts*: TR(C,B,1,R) = 5 + 2*TR(C-1,B,1,R+1) reads/writes of
// multi-reader single-writer atomic registers per Read, and
// TW = R + 2 + TR(C-1,B,1,R+1) per 0-Write. Every register in
// src/registers bumps these thread-local counters, so a bench can
// measure the recurrence exactly and schedule-independently.
#pragma once

#include <cstdint>

namespace compreg {

struct OpCounters {
  // Accesses to MRSW atomic registers, the unit of the paper's
  // TR/TW recurrences.
  std::uint64_t reg_reads = 0;
  std::uint64_t reg_writes = 0;

  std::uint64_t total() const { return reg_reads + reg_writes; }

  OpCounters operator-(const OpCounters& rhs) const {
    return OpCounters{reg_reads - rhs.reg_reads, reg_writes - rhs.reg_writes};
  }
};

namespace detail {
// constinit: constant-initialized with a trivial destructor, so a
// register's bump is one TLS-relative increment with no init guard.
inline thread_local constinit OpCounters t_op_counters;
}  // namespace detail

// The calling thread's counters. Registers increment these on every
// shared read/write; benchmarks snapshot before/after an operation.
inline OpCounters& op_counters() { return detail::t_op_counters; }

// RAII window: records the counter state at construction; delta() gives
// the operations performed by this thread since then.
class OpWindow {
 public:
  OpWindow() : start_(op_counters()) {}
  OpCounters delta() const { return op_counters() - start_; }

 private:
  OpCounters start_;
};

}  // namespace compreg
