// TheoryCell: Cell-concept adapter over the theoretical register chain
// (AtomicMrswFromSwsr over simulated regular registers over safe-bit
// semantics).
//
// Plugging this into CompositeRegister instantiates the COMPLETE
// hierarchy of the literature in one executable stack:
//
//     composite register (Anderson, this paper)
//       <- MRSW atomic registers (full-information construction)
//       <- SWSR atomic registers (Lamport sequence filtering)
//       <- SWSR regular registers (simulated primitive; bounded
//          stand-ins built from safe bits live alongside in chain.h)
//
// Under the deterministic simulator, schedule points sit at the
// *primitive* level, so interleavings cut through the middle of a Y[0]
// or Z access — verifying that the construction only needs its base
// registers to be linearizable, not physically instantaneous.
//
// SIMULATOR-ONLY for concurrent use: the chain's primitives are plain
// fields and are safe exactly because the simulator serializes steps.
// Single-threaded use (e.g. cost accounting) is fine anywhere.
#pragma once

#include <cstdint>

#include "sched/access.h"
#include "sched/schedule_point.h"
#include "theory/chain.h"
#include "util/op_counter.h"
#include "util/space_accounting.h"

namespace compreg::theory {

template <typename T>
class TheoryCell {
 public:
  TheoryCell(int readers, T initial, const char* label = "theory_cell",
             std::uint64_t payload_bits = sizeof(T) * 8)
      : access_(label, sched::Discipline::kSwmr, readers),
        inner_(readers, initial) {
    account_register(label, payload_bits, readers);
  }

  TheoryCell(const TheoryCell&) = delete;
  TheoryCell& operator=(const TheoryCell&) = delete;

  T read(int reader_id) {
    ++op_counters().reg_reads;  // one MRSW-model operation
    // observe(), not point(): the chain already takes schedule points at
    // the primitive level; the model-level access is only labeled.
    sched::observe(access_.read(reader_id));
    return inner_.read(reader_id);
  }

  template <typename F>
  auto read(int reader_id, F&& f) {
    return f(read(reader_id));
  }

  void write(const T& value) {
    ++op_counters().reg_writes;
    sched::observe(access_.write());
    inner_.write(value);
  }

 private:
  sched::AccessLabel access_;
  AtomicMrswFromSwsr<T> inner_;
};

}  // namespace compreg::theory
