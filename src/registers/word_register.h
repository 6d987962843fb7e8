// Multi-reader single-writer atomic register for machine-word payloads.
//
// On modern hardware a std::atomic<T> with seq_cst ordering *is* an
// MRSW atomic register, so this is the trivial leaf of
// the register hierarchy. It still participates in the model: every
// access is one schedule point and one counted base-register operation
// (the unit of the paper's TR/TW recurrences).
#pragma once

#include <atomic>
#include <type_traits>

#include "sched/access.h"
#include "sched/schedule_point.h"
#include "util/op_counter.h"
#include "util/space_accounting.h"

namespace compreg::registers {

template <typename T>
class WordRegister {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  // `payload_bits` is the logical width accounted to the paper's space
  // analysis (e.g. 2 bits for a mod-3 sequence number even though we
  // store it in a byte).
  explicit WordRegister(T initial, const char* label = "word",
                        unsigned payload_bits = sizeof(T) * 8,
                        int readers = 1)
      : value_(initial),
        // Hardware registers keep no per-reader state, so accesses are
        // unslotted (declared readers = 0); single-writer discipline
        // still applies and is certified by the conformance analyzer.
        access_(label, sched::Discipline::kSwmr, /*readers=*/0) {
    account_register(label, payload_bits, readers);
  }

  WordRegister(const WordRegister&) = delete;
  WordRegister& operator=(const WordRegister&) = delete;

  T read() {
    sched::point(access_.read());
    ++op_counters().reg_reads;
    return value_.load(std::memory_order_seq_cst);
  }

  // A write of the value the register already holds is still one
  // labeled schedule point and one counted write, but stores nothing:
  // the register's value is the same whether or not the store lands,
  // so no read can tell the two apart, and the writer's line stays
  // shared with its readers.
  void write(T value) {
    sched::point(access_.write());
    ++op_counters().reg_writes;
    // relaxed: only this register's single writer stores to it, so the
    // load returns its own last store exactly.
    if (value_.load(std::memory_order_relaxed) != value) {
      value_.store(value, std::memory_order_seq_cst);
    }
  }

 private:
  std::atomic<T> value_;
  sched::AccessLabel access_;
};

// Cell-concept adapter for WordRegister: same constructor and access
// signatures as HazardCell/TaggedCell (readers first, reader-id on
// read), so it can serve as the small-register backend of
// CompositeRegister. The reader id is ignored — hardware MRSW registers
// need no per-reader state.
template <typename T>
class WordCell {
 public:
  WordCell(int readers, T initial, const char* label = "word",
           unsigned payload_bits = sizeof(T) * 8)
      : reg_(initial, label, payload_bits, readers) {}

  WordCell(const WordCell&) = delete;
  WordCell& operator=(const WordCell&) = delete;

  T read(int /*reader_id*/) { return reg_.read(); }
  void write(T value) { reg_.write(value); }

 private:
  WordRegister<T> reg_;
};

}  // namespace compreg::registers
