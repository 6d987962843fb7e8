// FullInfoCell<T, Swsr>: strictly wait-free multi-reader single-writer
// atomic register built from SWSR atomic registers — the classical
// unbounded-tag construction (Israeli–Li style full-information
// protocol, as presented in Attiya & Welch).
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
// SWSR operations for fixed R — no loops, no retries, no allocation:
// wait-free in the strict, per-operation-bounded sense of the paper's
// Wait-Freedom restriction.
//
// Cost: read = R SWSR reads + (R-1) SWSR writes; write = R SWSR writes.
// The 64-bit tag is the standard unbounded-timestamp simplification of
// the bounded constructions cited by the paper ([26],[27]); it cannot
// overflow in practice (2^64 writes).
//
// One construction, two leaves. TaggedCell<T> (below) runs it over
// SimpsonRegister, which takes no schedule points, so the cell takes one
// labeled point per operation; theory::TheoryCell<T> (theory/chain.h)
// runs it over the chain's simulated SWSR registers, which take a point
// per primitive access, so the cell only observe()s its own access. The
// leaf says which: its static constexpr kTakesPoints.
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

template <typename T, template <typename> class Swsr>
class FullInfoCell {
 public:
  // The tag identifies the write a read returned; exposed for the
  // register checker.
  struct Tagged {
    std::uint64_t tag;
    T value;
  };

  FullInfoCell(int readers, T initial, const char* label = "tagged_cell",
               std::uint64_t payload_bits = sizeof(T) * 8)
      : readers_(readers), access_(label, sched::Discipline::kSwmr, readers) {
    COMPREG_CHECK(readers >= 1);
    const Tagged init{0, initial};
    own_.reserve(static_cast<std::size_t>(readers));
    for (int j = 0; j < readers; ++j) {
      own_.push_back(std::make_unique<Swsr<Tagged>>(init));
    }
    report_.resize(static_cast<std::size_t>(readers) *
                   static_cast<std::size_t>(readers));
    for (auto& reg : report_) {
      reg = std::make_unique<Swsr<Tagged>>(init);
    }
    account_register(label, payload_bits, readers);
  }

  FullInfoCell(const FullInfoCell&) = delete;
  FullInfoCell& operator=(const FullInfoCell&) = delete;

  int readers() const { return readers_; }

  Tagged read_tagged(int reader_id) {
    COMPREG_DCHECK(reader_id >= 0 && reader_id < readers_);
    step(access_.read(reader_id));
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
    return best;
  }

  T read(int reader_id) { return read_tagged(reader_id).value; }

  // Visitor read, HazardCell's surface: `f` runs on a copy here.
  template <typename F>
  auto read(int reader_id, F&& f) {
    return f(read(reader_id));
  }

  // Single writer.
  void write(const T& value) {
    step(access_.write());
    ++op_counters().reg_writes;
    const Tagged item{++tag_, value};
    for (auto& reg : own_) reg->write(item);
  }

 private:
  // The model-level access: a schedule point of its own unless the
  // leaf already takes them at the primitive level, where the access
  // is only labeled.
  static void step(const sched::Access& access) {
    if constexpr (Swsr<Tagged>::kTakesPoints) {
      sched::observe(access);
    } else {
      sched::point(access);
    }
  }

  Swsr<Tagged>& report(int from, int to) {
    return *report_[static_cast<std::size_t>(from) *
                        static_cast<std::size_t>(readers_) +
                    static_cast<std::size_t>(to)];
  }

  const int readers_;
  sched::AccessLabel access_;
  std::uint64_t tag_ = 0;  // writer-private
  // own_[j]: writer -> reader j.
  std::vector<std::unique_ptr<Swsr<Tagged>>> own_;
  // report(i, j): reader i -> reader j (diagonal unused).
  std::vector<std::unique_ptr<Swsr<Tagged>>> report_;
};

// An alias, not a defaulted second parameter, so the one-parameter
// template binds to CompositeRegister's Cell parameter without relaxed
// template-template matching (P0522).
template <typename T>
using TaggedCell = FullInfoCell<T, SimpsonRegister>;

}  // namespace compreg::registers
