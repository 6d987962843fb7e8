// TaggedCell<T>: strictly wait-free multi-reader single-writer atomic
// register built from SWSR registers — the classical unbounded-tag
// construction (Israeli–Li style full-information protocol, as
// presented in Attiya & Welch).
//
//   * the writer keeps one SWSR register per reader and writes
//     (value, tag) to each, tag increasing;
//   * reader j reads its own copy plus every other reader's report
//     register, adopts the maximum tag, reports what it is about to
//     return to every other reader, then returns it.
//
// Reader-to-reader reporting is what prevents new-old inversions (it is
// provably necessary: readers of an atomic MRSW register built from
// SWSR registers must write). Every operation is a constant number of
// Simpson four-slot operations for fixed R — no loops, no retries, no
// allocation: wait-free in the strict, per-operation-bounded sense of
// the paper's Wait-Freedom restriction.
//
// Cost: read = R SWSR reads + (R-1) SWSR writes; write = R SWSR writes.
// The 64-bit tag is the standard unbounded-timestamp simplification of
// the bounded constructions cited by the paper ([26],[27]); it cannot
// overflow in practice (2^64 writes).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "registers/simpson.h"
#include "sched/access.h"
#include "sched/schedule_point.h"
#include "util/assert.h"
#include "util/op_counter.h"
#include "util/space_accounting.h"

namespace compreg::registers {

template <typename T>
class TaggedCell {
 public:
  TaggedCell(int readers, T initial, const char* label = "tagged_cell",
             std::uint64_t payload_bits = sizeof(T) * 8)
      : readers_(readers), access_(label, sched::Discipline::kSwmr, readers) {
    COMPREG_CHECK(readers >= 1);
    const Tagged init{initial, 0};
    own_.reserve(static_cast<std::size_t>(readers));
    for (int j = 0; j < readers; ++j) {
      own_.push_back(std::make_unique<SimpsonRegister<Tagged>>(init));
    }
    report_.resize(static_cast<std::size_t>(readers) *
                   static_cast<std::size_t>(readers));
    for (auto& reg : report_) {
      reg = std::make_unique<SimpsonRegister<Tagged>>(init);
    }
    account_register(label, payload_bits, readers);
  }

  TaggedCell(const TaggedCell&) = delete;
  TaggedCell& operator=(const TaggedCell&) = delete;

  int readers() const { return readers_; }

  T read(int reader_id) {
    COMPREG_DCHECK(reader_id >= 0 && reader_id < readers_);
    sched::point(access_.read(reader_id));
    ++op_counters().reg_reads;
    Tagged best = own_[static_cast<std::size_t>(reader_id)]->read();
    for (int i = 0; i < readers_; ++i) {
      if (i == reader_id) continue;
      const Tagged seen = report(i, reader_id).read();
      if (seen.tag > best.tag) best = seen;
    }
    for (int i = 0; i < readers_; ++i) {
      if (i == reader_id) continue;
      report(reader_id, i).write(best);
    }
    return best.value;
  }

  // Visitor read, HazardCell's surface: `f` runs on a copy here.
  template <typename F>
  auto read(int reader_id, F&& f) {
    return f(read(reader_id));
  }

  // Single writer.
  void write(const T& value) {
    sched::point(access_.write());
    ++op_counters().reg_writes;
    const Tagged item{value, ++tag_};
    for (auto& reg : own_) reg->write(item);
  }

 private:
  struct Tagged {
    T value;
    std::uint64_t tag;
  };

  SimpsonRegister<Tagged>& report(int from, int to) {
    return *report_[static_cast<std::size_t>(from) *
                        static_cast<std::size_t>(readers_) +
                    static_cast<std::size_t>(to)];
  }

  const int readers_;
  sched::AccessLabel access_;
  std::uint64_t tag_ = 0;  // writer-private
  // own_[j]: writer -> reader j.
  std::vector<std::unique_ptr<SimpsonRegister<Tagged>>> own_;
  // report(i, j): reader i -> reader j (diagonal unused).
  std::vector<std::unique_ptr<SimpsonRegister<Tagged>>> report_;
};

}  // namespace compreg::registers
