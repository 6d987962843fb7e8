// The theoretical register chain: safe bits -> regular bits -> regular
// M-valued -> atomic SWSR -> atomic MRSW.
//
// The paper's space analysis (Section 4.1) prices everything in
// single-reader single-writer safe/atomic *bits*, citing the chain of
// constructions [16,17,19,20,26,27] that builds MRSW atomic registers
// from them. This module implements a teaching-grade version of that
// chain, executed on the deterministic simulator so each layer's
// guarantee (safety / regularity / atomicity) can be tested against
// adversarial interleavings:
//
//   SimSafeBit          simulated primitive: a read overlapping a write
//                       may return either bit value (adversarial);
//   RegularBit          Lamport: write a safe bit only when the value
//                       changes => overlapping reads see old or new;
//   RegularMValued      Lamport: unary code over regular bits; writer
//                       sets bit v then clears below, reader scans up;
//   SimRegularRegister  simulated primitive with regular semantics for
//                       arbitrary payloads (needed because Lamport's
//                       atomic construction tags values with unbounded
//                       sequence numbers, which no finite unary code
//                       holds — see DESIGN.md substitutions);
//   AtomicSwsr          Lamport: (seq, value) pairs in a regular
//                       register + reader-side max filtering;
//   TheoryCell          unbounded-tag full-information construction
//                       (registers::FullInfoCell over AtomicSwsr):
//                       writer writes every reader's copy, readers
//                       forward what they return to every other reader.
//
// These registers take a schedule point per primitive access, so the
// simulator interleaves *inside* them (unlike the production cells in
// src/registers, which are one point per operation). Every point is
// labeled with the instance's SWSR AccessLabel so the conformance
// analyzer certifies the chain's single-writer/single-reader usage and
// the DPOR engine (src/sched/dpor.h) can commute accesses to distinct
// bits instead of treating them as opaque always-dependent steps.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "registers/tagged_cell.h"
#include "sched/schedule_point.h"
#include "util/assert.h"
#include "util/space_accounting.h"

namespace compreg::theory {

// Per-thread counters of primitive accesses (safe bits and simulated
// regular registers) — the unit of the paper's space/time citations at
// the bottom of the hierarchy. bench_theory sweeps these.
struct TheoryOps {
  std::uint64_t safe_bit_reads = 0;
  std::uint64_t safe_bit_writes = 0;
  std::uint64_t regular_reads = 0;
  std::uint64_t regular_writes = 0;

  std::uint64_t total() const {
    return safe_bit_reads + safe_bit_writes + regular_reads + regular_writes;
  }
};
TheoryOps& theory_ops();

// ---------------------------------------------------------------------
// Simulated primitives. Their adversarial choices are driven by a
// deterministic per-register toggle so runs stay replayable.
// ---------------------------------------------------------------------

// Single-writer single-reader *safe* bit: reads that overlap a write
// return an arbitrary bit.
class SimSafeBit {
 public:
  explicit SimSafeBit(bool initial)
      : access_("safe_bit", sched::Discipline::kSwsr, /*readers=*/1),
        value_(initial) {
    account_register("safe_bit", 1, 1);
  }

  void write(bool v) {
    ++theory_ops().safe_bit_writes;
    sched::point(access_.write());  // begin: the register is now unstable
    writing_ = true;
    sched::point(access_.write());  // commit
    value_ = v;
    writing_ = false;
  }

  bool read() {
    ++theory_ops().safe_bit_reads;
    sched::point(access_.read(0));
    if (writing_) return (flips_++ & 1) != 0;  // adversarial garbage
    return value_;
  }

 private:
  sched::AccessLabel access_;
  bool value_;
  bool writing_ = false;
  std::uint64_t flips_ = 0;
};

// Single-writer single-reader *regular* register for arbitrary
// payloads: an overlapping read returns the old or the new value.
template <typename T>
class SimRegularRegister {
 public:
  explicit SimRegularRegister(const T& initial)
      : access_("swsr_regular", sched::Discipline::kSwsr, /*readers=*/1),
        value_(initial) {
    // Register-count accounting only; sizeof(T) under-reports payloads
    // containing vectors, which is fine for counting purposes.
    account_register("swsr_regular", sizeof(T) * 8, 1);
  }

  void write(const T& v) {
    ++theory_ops().regular_writes;
    sched::point(access_.write());  // begin
    pending_ = v;
    writing_ = true;
    sched::point(access_.write());  // commit
    value_ = v;
    writing_ = false;
  }

  T read() {
    ++theory_ops().regular_reads;
    sched::point(access_.read(0));
    if (writing_) return (flips_++ & 1) != 0 ? pending_ : value_;
    return value_;
  }

 private:
  sched::AccessLabel access_;
  T value_;
  T pending_{};
  bool writing_ = false;
  std::uint64_t flips_ = 0;
};

// ---------------------------------------------------------------------
// Constructions.
// ---------------------------------------------------------------------

// Lamport: a safe M-valued register from ceil(log2 M) safe bits via
// binary encoding. Torn multi-bit reads are fine here because SAFE
// semantics already permits an overlapping read to return anything in
// the domain — this is the cheapest rung of the ladder and the reason
// "safe" registers cost only log M bits while "regular" ones (below)
// cost M.
class SafeMValued {
 public:
  SafeMValued(int domain, int initial) : m_(domain) {
    COMPREG_CHECK(domain >= 1);
    COMPREG_CHECK(initial >= 0 && initial < domain);
    int bits = 1;
    while ((1 << bits) < domain) ++bits;
    bits_.reserve(static_cast<std::size_t>(bits));
    for (int i = 0; i < bits; ++i) {
      bits_.push_back(std::make_unique<SimSafeBit>(((initial >> i) & 1) != 0));
    }
  }

  int domain() const { return m_; }
  int width() const { return static_cast<int>(bits_.size()); }

  // Single writer: writes only the bits that change (harmless but
  // cheaper; safety does not require it).
  void write(int v) {
    COMPREG_DCHECK(v >= 0 && v < m_);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      bits_[i]->write(((v >> i) & 1) != 0);
    }
  }

  // A read overlapping a write may return ANY value (possibly outside
  // the values ever written — that is what "safe" means); callers are
  // expected to clamp or tolerate.
  int read() {
    int v = 0;
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      v |= (bits_[i]->read() ? 1 : 0) << i;
    }
    return v;
  }

 private:
  const int m_;
  std::vector<std::unique_ptr<SimSafeBit>> bits_;
};

// Simulated ATOMIC bit: one schedule point per access, no garbage
// window. The strongest bit primitive in the chain (what hardware
// test-free flag registers give you); used to study which constructions
// need bit atomicity and which survive on regular bits (see
// four_slot.h for a construction where the difference is observable).
class SimAtomicBit {
 public:
  explicit SimAtomicBit(bool initial)
      : access_("atomic_bit", sched::Discipline::kSwsr, /*readers=*/1),
        value_(initial) {
    account_register("atomic_bit", 1, 1);
  }

  void write(bool v) {
    sched::point(access_.write());
    value_ = v;
  }

  bool read() {
    sched::point(access_.read(0));
    return value_;
  }

 private:
  sched::AccessLabel access_;
  bool value_;
};

// Lamport: a regular bit from a safe bit — write through only when the
// value changes, so an overlapping read's arbitrary result is always
// "old or new".
class RegularBit {
 public:
  explicit RegularBit(bool initial) : bit_(initial), last_(initial) {}

  void write(bool v) {
    if (v != last_) {
      bit_.write(v);
      last_ = v;
    }
  }

  bool read() { return bit_.read(); }

 private:
  SimSafeBit bit_;
  bool last_;  // writer-private
};

// Lamport: regular M-valued register from M regular bits (unary code).
// write(v): set bit v, then clear bits v-1..0; read: first set bit
// scanning upward. Reader cost <= M, writer cost <= v+1.
class RegularMValued {
 public:
  RegularMValued(int domain, int initial) : m_(domain) {
    COMPREG_CHECK(domain >= 1);
    COMPREG_CHECK(initial >= 0 && initial < domain);
    bits_.reserve(static_cast<std::size_t>(domain));
    for (int i = 0; i < domain; ++i) {
      bits_.push_back(std::make_unique<RegularBit>(i == initial));
    }
  }

  void write(int v) {
    COMPREG_DCHECK(v >= 0 && v < m_);
    bits_[static_cast<std::size_t>(v)]->write(true);
    for (int i = v - 1; i >= 0; --i) {
      bits_[static_cast<std::size_t>(i)]->write(false);
    }
  }

  int read() {
    for (int i = 0; i < m_; ++i) {
      if (bits_[static_cast<std::size_t>(i)]->read()) return i;
    }
    // Unreachable under the construction's invariant (some bit at or
    // above the last written value is always set).
    COMPREG_UNREACHABLE("unary register with no set bit");
  }

 private:
  const int m_;
  std::vector<std::unique_ptr<RegularBit>> bits_;
};

// Lamport: atomic SWSR register from a regular register of
// (seq, value) pairs — the reader keeps the largest sequence number it
// has returned and never goes back (regular + no new-old inversion =
// atomic, and with one reader the filtering is local).
template <typename T>
class AtomicSwsr {
 public:
  explicit AtomicSwsr(const T& initial)
      : reg_(Pair{0, initial}), last_{0, initial} {}

  // Its regular register takes the schedule points (FullInfoCell).
  static constexpr bool kTakesPoints = true;

  void write(const T& v) {
    ++seq_;
    reg_.write(Pair{seq_, v});
  }

  T read() {
    const Pair p = reg_.read();
    if (p.seq > last_.seq) last_ = p;
    return last_.value;
  }

 private:
  struct Pair {
    std::uint64_t seq;
    T value;
  };

  SimRegularRegister<Pair> reg_;
  std::uint64_t seq_ = 0;  // writer-private
  Pair last_;              // reader-private
};

// REGULAR MRSW register from SWSR registers, with invisible readers:
// the writer writes one copy per reader; reader j reads only its own
// copy. This is regular (a read overlapping no write sees the latest
// completed write; an overlapping read sees old-or-new of its copy) but
// NOT atomic: while the writer walks the copies, reader 0 can see the
// new value from copy 0 before reader 1 — starting strictly later —
// sees the old value still in copy 1: a cross-reader new-old inversion.
// tests/theory/chain_test.cpp constructs that schedule explicitly; the
// report matrix in TheoryCell below is precisely what removes it. (Same
// moral as the paper's Z[j] registers: readers must write.)
template <typename T>
class RegularMrswNoReports {
 public:
  RegularMrswNoReports(int readers, const T& initial) : r_(readers) {
    COMPREG_CHECK(readers >= 1);
    for (int j = 0; j < r_; ++j) {
      copies_.push_back(std::make_unique<AtomicSwsr<T>>(initial));
    }
  }

  void write(const T& v) {
    for (auto& copy : copies_) copy->write(v);
  }

  T read(int reader_id) {
    COMPREG_DCHECK(reader_id >= 0 && reader_id < r_);
    return copies_[static_cast<std::size_t>(reader_id)]->read();
  }

 private:
  const int r_;
  std::vector<std::unique_ptr<AtomicSwsr<T>>> copies_;
};

// TheoryCell: atomic MRSW from SWSR atomic registers — FullInfoCell,
// the construction TaggedCell runs over Simpson registers, over
// AtomicSwsr (over four_slot.h's FourSlotAtomic, control state is
// bounded too).
//
// Plugging this into CompositeRegister instantiates the COMPLETE
// hierarchy of the literature in one executable stack:
//
//     composite register (Anderson, this paper)
//       <- MRSW atomic registers (full-information construction)
//       <- SWSR atomic registers (Lamport sequence filtering)
//       <- SWSR regular registers (simulated primitive; bounded
//          stand-ins built from safe bits live alongside in this file)
//
// Under the deterministic simulator, schedule points sit at the
// *primitive* level, so interleavings cut through the middle of a Y[0]
// or Z access — verifying that the construction only needs its base
// registers to be linearizable, not physically instantaneous.
//
// SIMULATOR-ONLY for concurrent use: the chain's primitives are plain
// fields and are safe exactly because the simulator serializes steps.
// Single-threaded use (e.g. cost accounting) is fine anywhere.
template <typename T>
using TheoryCell = registers::FullInfoCell<T, AtomicSwsr>;

}  // namespace compreg::theory
