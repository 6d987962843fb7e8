// SimFourSlot: Simpson's four-slot SWSR register built from the theory
// chain's own bit primitives plus four plain data slots — a BOUNDED
// wait-free SWSR register from bits, complementing AtomicSwsr (which
// takes the unbounded-sequence shortcut).
//
// Control-bit ownership (all single-writer single-reader):
//   latest   writer -> reader   which pair was written last
//   reading  reader -> writer   which pair the reader is using
//   slot[p]  writer -> reader   which index within pair p is newest
//
// The Bit template parameter is the whole story:
//
//   * SimFourSlot<SimAtomicBit> is ATOMIC — Simpson's classical result,
//     control bits taking effect at a single instant;
//   * SimFourSlot<RegularBit> is only REGULAR: a reader overlapping the
//     writer's `latest` update can return the new value while a later
//     reader, still overlapping the same bit write, returns the old one
//     — a cross-read new-old inversion. This is not a bug in the
//     mechanism but a known fine point about what the four-slot
//     discipline does and does not provide, and this repository's
//     checkers DISCOVERED it (random-schedule seed 31 in
//     tests/theory/four_slot_test.cpp, kept there as a regression
//     witness).
//
// Either way, the four-slot theorem — reader and writer never touch the
// same data slot concurrently, hence no torn reads — holds and is
// CHECKED, not assumed: each data slot carries a `writing` flag with
// schedule points inside the vulnerable window, and the reader
// COMPREG_CHECKs it before copying; a schedule breaking slot exclusion
// would abort the simulation.
//
// Simulator-only for concurrent use (plain fields, like the rest of
// the chain).
#pragma once

#include <cstdint>
#include <memory>

#include "sched/schedule_point.h"
#include "theory/chain.h"
#include "util/assert.h"

namespace compreg::theory {

template <typename T, typename Bit = SimAtomicBit>
class SimFourSlot {
 public:
  explicit SimFourSlot(const T& initial)
      : data_access_("four_slot.data", sched::Discipline::kSwsr,
                     /*readers=*/1),
        latest_(false),
        reading_(false) {
    slot_bit_[0] = std::make_unique<Bit>(false);
    slot_bit_[1] = std::make_unique<Bit>(false);
    for (auto& pair : data_) {
      for (auto& s : pair) s.value = initial;
    }
  }

  SimFourSlot(const SimFourSlot&) = delete;
  SimFourSlot& operator=(const SimFourSlot&) = delete;

  // Its bits and data window take the schedule points (FullInfoCell).
  static constexpr bool kTakesPoints = true;

  // Single writer.
  void write(const T& item) {
    // Choose the pair the reader is NOT using, and the index within it
    // that was not written last. The writer is the only writer of the
    // slot bits, so it tracks them privately (equivalent to re-reading
    // its own registers, without the extra bit operations).
    const int wp = reading_.read() ? 0 : 1;
    const int wi = my_slot_[wp] ? 0 : 1;
    DataSlot& s = data_[wp][wi];
    // Vulnerable window, made visible to the scheduler: if the
    // four-slot discipline ever let the reader in here, the reader's
    // check would abort.
    // One label covers all four slots: which slot a step touches is
    // schedule-dependent, and slot exclusion is exactly the property
    // under test — commuting two data-area steps would assume it.
    sched::point(data_access_.write());
    s.writing = true;
    sched::point(data_access_.write());
    s.value = item;
    s.writing = false;
    // Publish index then pair (order matters: the reader must not see
    // `latest` pointing at a pair whose fresh index is unpublished).
    slot_bit_[wp]->write(wi != 0);
    my_slot_[wp] = wi != 0;
    latest_.write(wp != 0);
  }

  // Single reader.
  T read() {
    const int rp = latest_.read() ? 1 : 0;
    reading_.write(rp != 0);
    const int ri = slot_bit_[rp]->read() ? 1 : 0;
    const DataSlot& s = data_[rp][ri];
    sched::point(data_access_.read(0));
    COMPREG_CHECK(!s.writing,
                  "four-slot mechanism violated: reader entered a slot "
                  "the writer is writing");
    return s.value;
  }

 private:
  struct DataSlot {
    T value{};
    bool writing = false;
  };

  sched::AccessLabel data_access_;
  Bit latest_;
  Bit reading_;
  std::unique_ptr<Bit> slot_bit_[2];
  bool my_slot_[2] = {false, false};  // writer-private mirror
  DataSlot data_[2][2];
};

// Adapter alias so the four-slot register (with atomic control bits)
// can serve as the SWSR leaf of registers::FullInfoCell — composing the
// deepest stack in the repository: composite register -> MRSW ->
// four-slot -> bits.
template <typename T>
using FourSlotAtomic = SimFourSlot<T, SimAtomicBit>;

}  // namespace compreg::theory
