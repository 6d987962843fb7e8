// CompositeRegister: the paper's C/B/1/R construction (Figure 3).
//
// A single-writer composite register with C components and R readers,
// built recursively from multi-reader single-writer atomic registers:
//
//   Y[0]      one MRSW register written by Writer 0 and read by the R
//             readers, holding {item, seq[0..1][0..R-1], ss[0..C-1], wc};
//   Y[1..C-1] a (C-1)-component composite register with R+1 readers
//             (reader slot R belongs to Writer 0) — the recursion;
//   Z[0..R-1] mod-3 registers, Z[j] written by reader j and read by
//             Writer 0.
//
// Statement labels in the method bodies match Figure 3 exactly
// (Reader 0-9, Writer0 0-8, Writer 1-2) so the code can be read
// side-by-side with the paper's proof. The auxiliary id fields are kept
// (see item.h) and never influence control flow.
//
// Cost (paper Section 4.1, asserted in tests, measured in bench):
//   TR(C,R) = 5 + 2*TR(C-1,R+1),  TR(1,R) = 1        => O(2^C)
//   TW(C,R) = R + 2 + TR(C-1,R+1), TW(1,R) = 1       => O(R + 2^C)
// base-register operations per Read / per 0-Write; a k-Write enters the
// recursion k levels deep, so TW_k(C,R) = TW(C-k, R+k).
//
// The Cell template parameter selects the MRSW register backend for
// the large Y[0] records: registers::HazardCell (default; lock-free
// reclamation handshake) or registers::TaggedCell (strictly wait-free).
// SmallCell selects the backend for the mod-3 Z registers (default:
// hardware-backed registers::WordCell). theory::TheoryCell can be used
// for both, which instantiates the construction on the safe-bit
// register chain — the entire hierarchy of the literature in one stack
// (simulator-only; see theory/chain.h).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/item.h"
#include "core/snapshot.h"
#include "registers/hazard_cell.h"
#include "registers/register_concepts.h"
#include "registers/word_register.h"
#include "util/assert.h"
#include "util/inline_array.h"

namespace compreg::core {

// Y[0]'s record type (Figure 2/3), one flat object: seq and ss keep
// their elements inline up to a byte budget, so a HazardCell node holds
// the whole record, a record copy is one copy, and the fields every reader
// touches (item, wc, seq[j]) share the record's first cache line. The
// budgets hold up to 8 reader slots and six 64-bit components; a larger
// shape or a larger V spills seq or ss to one heap block. For the base
// case C == 1, seq and ss stay empty and only item/wc are meaningful.
template <typename V>
struct Y0Record {
  static constexpr std::size_t kSeqBytes =
      8 * sizeof(std::array<std::uint8_t, 2>);
  static constexpr std::size_t kSsBytes = 6 * sizeof(Item<std::uint64_t>);

  Item<V> item;
  std::uint8_t wc = 0;  // mod-3 write counter
  // seq[j] = {copy 0, copy 1} of reader j's sequence number —
  // transposed from the paper's seq[0..1][0..R-1] for locality.
  InlineArray<std::array<std::uint8_t, 2>, kSeqBytes> seq;
  InlineArray<Item<V>, kSsBytes> ss;  // Writer 0's snapshot, ss[0..C-1]
};

template <typename V, template <typename> class Cell = registers::HazardCell,
          template <typename> class SmallCell = registers::WordCell>
class CompositeRegister final : public Snapshot<V> {
  // The paper's Atomicity Restriction, statically: all shared state is
  // reached through MRSW atomic register operations only.
  static_assert(registers::MrswCell<SmallCell<std::uint8_t>, std::uint8_t>);

 public:
  // Performs the paper's assumed Initial Writes: every component starts
  // holding `initial` with id 0.
  CompositeRegister(int components, int num_readers, const V& initial)
      : c_(components), r_(num_readers) {
    COMPREG_CHECK(components >= 1);
    COMPREG_CHECK(num_readers >= 1);

    // Writer 0's private record starts as Y[0]'s initial value.
    Y0& init = w0_.rec;
    init.item = Item<V>{initial, 0};
    if (c_ > 1) {
      init.seq = {static_cast<std::size_t>(r_), {0, 0}};
      init.ss = {static_cast<std::size_t>(c_), Item<V>{initial, 0}};
      // Z[j] (written by reader j, read by Writer 0), j's buffers and
      // j's statement-8 counters. for_overwrite: every member but the
      // never-read pad has an initializer, so the pad is left unzeroed.
      slots_ = std::make_unique_for_overwrite<ReaderSlot[]>(
          static_cast<std::size_t>(r_));
      // Y[1..C-1]: the recursion, with reader slot R reserved for
      // Writer 0's snapshots (Figure 2).
      inner_ = std::make_unique<CompositeRegister>(c_ - 1, r_ + 1, initial);
    } else {
      base_reads_ = std::make_unique_for_overwrite<BaseReadCount[]>(
          static_cast<std::size_t>(r_));
    }
    y0_ = std::make_unique<Cell<Y0>>(r_, init, "Y0", y0_bits());
#ifndef NDEBUG
    writer0_busy_ = std::make_unique<std::atomic<bool>>(false);
    reader_busy_ =
        std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(r_));
    for (int j = 0; j < r_; ++j) reader_busy_[j] = false;
#endif
  }

  int components() const override { return c_; }
  int readers() const override { return r_; }

  // -------------------------------------------------------------------
  // Write operation. Component 0 runs the Writer0 procedure of
  // Figure 3; components 1..C-1 recurse (their Writer procedure — bump
  // id, single write of Y[i] — is realized by the inner register's
  // Writer0 at depth k).
  // -------------------------------------------------------------------
  std::uint64_t update(int component, const V& value) override {
    COMPREG_DCHECK(component >= 0 && component < c_);
    // audit: exempt(waitfree, recursion depth bounded by C - each level strips one component, so a Write takes O(C) steps)
    if (component > 0) return inner_->update(component - 1, value);

#ifndef NDEBUG
    // relaxed: the RMW's atomicity alone detects overlap; this
    // debug-only guard carries no ordering contract.
    COMPREG_CHECK(!writer0_busy_->exchange(true, std::memory_order_relaxed),
                  "concurrent Writers on one component (W=1 violated)");
#endif
    std::uint64_t id;
    if (c_ == 1) {
      // Base case: a 1/B/1/R composite register is an atomic register.
      w0_.rec.item = Item<V>{value, w0_.rec.item.id + 1};
      y0_->write(w0_.rec);
      id = w0_.rec.item.id;
    } else {
      id = write0(value);
    }
#ifndef NDEBUG
    // relaxed: see the exchange above - debug guard only.
    writer0_busy_->store(false, std::memory_order_relaxed);
#endif
    return id;
  }

  // -------------------------------------------------------------------
  // Read operation (Figure 3, Reader procedure).
  // -------------------------------------------------------------------
  void scan_items(int reader_id, std::vector<Item<V>>& out) override {
    collect(reader_id, out);
  }

  using Snapshot<V>::scan;
  using Snapshot<V>::scan_items;

  // Statement-8 outcome counters at this recursion level (diagnostics,
  // not part of the register model). `adopted_snapshot` counts Reads
  // that returned an overlapping 0-Write's embedded snapshot — the
  // construction's helping mechanism (Figure 4 cases); the other two
  // count Reads that kept their own first/second collect.
  struct ScanCaseStats {
    std::uint64_t adopted_snapshot = 0;  // statement 8, case 1 & 2
    std::uint64_t first_collect = 0;     // case 3 (a, b)
    std::uint64_t second_collect = 0;    // case 4 (c, d)
    std::uint64_t base_reads = 0;        // C == 1 degenerate reads
  };
  // Sums the reader slots' counters. Each counter only grows, so the
  // result is a monotone snapshot; it is not an atomic cut across slots
  // while scans run.
  ScanCaseStats scan_case_stats() const {
    ScanCaseStats s;
    for (std::size_t j = 0; j < static_cast<std::size_t>(r_); ++j) {
      if (c_ == 1) {
        s.base_reads += peek(base_reads_[j].n);
        continue;
      }
      const auto& n = slots_[j].cases;
      s.adopted_snapshot += peek(n[kAdopted]);
      s.first_collect += peek(n[kFirst]);
      s.second_collect += peek(n[kSecond]);
    }
    return s;
  }

  // Same counters for every recursion level, outermost first (the last
  // entry is the base case, which only counts degenerate reads). Level
  // l is visited 2^l times per top-level scan.
  std::vector<ScanCaseStats> scan_case_stats_by_level() const {
    std::vector<ScanCaseStats> out;
    for (const CompositeRegister* level = this; level != nullptr;
         level = level->inner_.get()) {
      out.push_back(level->scan_case_stats());
    }
    return out;
  }

  // Exact per-operation base-register costs (paper Section 4.1):
  //   TR(1,R) = 1,  TR(C,R) = 5 + 2*TR(C-1,R+1)   (R-independent)
  //   TW(1,R) = 1,  TW(C,R) = R + 2 + TR(C-1,R+1)
  // and a k-Write costs TW(C-k, R+k) (it enters the recursion k deep).
  static std::uint64_t read_cost(int components, int /*num_readers*/) {
    std::uint64_t tr = 1;
    for (int c = 2; c <= components; ++c) tr = 5 + 2 * tr;
    return tr;
  }
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters): paper tuple
  static std::uint64_t write_cost(int components, int num_readers,
                                  int component = 0) {
    const int c = components - component;
    const std::uint64_t r =
        static_cast<std::uint64_t>(num_readers + component);
    if (c <= 1) return 1;
    return r + 2 + read_cost(c - 1, static_cast<int>(r) + 1);
  }

 private:
  using Y0 = Y0Record<V>;

  // The part of a Y[0] record statements 3 and 5 use.
  struct ItemWc {
    Item<V> item;
    std::uint8_t wc;
  };
  static ItemWc item_wc(const Y0& y) { return ItemWc{y.item, y.wc}; }

  // Writer 0's persistent private variables (Figure 3 declares them
  // `private var` with an initialization tied to Y[0]'s initial value).
  // They are exactly the fields of a Y[0] record, so Writer 0 keeps
  // them as one and statements 3 and 7 write it as is.
  struct Writer0State {
    Y0 rec;                  // item, seq, ss, wc
    std::vector<Item<V>> y;  // statement 4 snapshot buffer
  };

  // Statement-8 outcomes, indexing ReaderSlot::cases.
  enum Case : std::uint8_t { kAdopted, kFirst, kSecond, kCases };

  // Reader j's private state next to the register it writes: Z[j]
  // (read by Writer 0 only), the buffers statements 4 and 6 collect
  // Y[1..C-1] into, reused by every Read on slot j, and j's statement-8
  // counters. The slots sit in one array; `pad` puts 64 bytes between
  // one slot's counters and the next slot's Z, so a reader's writes
  // never invalidate a line another reader is reading. (alignas(64)
  // would do the same but needs the aligned operator new, which made
  // construction measurably slower.)
  struct ReaderSlot {
    SmallCell<std::uint8_t> z{/*readers=*/1, std::uint8_t{0}, "Z",
                              /*payload_bits=*/2};
    std::vector<Item<V>> b, d;
    std::atomic<std::uint64_t> cases[kCases]{};
    char pad[64];
  };

  // The C == 1 level's per-reader read counter, one 64-byte stride
  // apart, so no two readers' counters ever share a cache line.
  struct BaseReadCount {
    std::atomic<std::uint64_t> n{0};
    char pad[56];
  };

  static void bump(std::atomic<std::uint64_t>& n) {
    // Reader slot j alone bumps slot j's counters, so a load+store does
    // the job of an RMW; relaxed because the counters order nothing.
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  static std::uint64_t peek(const std::atomic<std::uint64_t>& n) {
    // relaxed: a stats reader needs only each counter's monotonicity.
    return n.load(std::memory_order_relaxed);
  }

  // Paper: Y[0] stores val(B) + seq (2 copies x R x 2 bits) + ss (C
  // values of B bits) + wc (2 bits); ids are auxiliary and not counted.
  std::uint64_t y0_bits() const {
    const std::uint64_t b = sizeof(V) * 8;
    if (c_ == 1) return b;
    return b + 4 * static_cast<std::uint64_t>(r_) +
           static_cast<std::uint64_t>(c_) * b + 2;
  }

  static std::uint8_t mod3_plus(std::uint8_t x, std::uint8_t d) {
    return static_cast<std::uint8_t>((x + d) % 3);
  }

  // newseq != s0 && newseq != s1 (possible because newseq ranges 0..2).
  static std::uint8_t pick_newseq(std::uint8_t s0, std::uint8_t s1) {
    for (std::uint8_t v = 0;; ++v) {
      // 3 candidate values, at most 2 exclusions: v never reaches 3.
      COMPREG_CHECK(v <= 2, "pick_newseq: 3 values minus 2 exclusions");
      if (v != s0 && v != s1) return v;
    }
  }

  std::uint64_t write0(const V& value) {
    Y0& w = w0_.rec;
    // 0: wc, item.val, item.id := wc (+) 1, val, item.id + 1
    w.wc = mod3_plus(w.wc, 1);
    w.item = Item<V>{value, w.item.id + 1};
    // 1, 2.n: read seq[0, n] := Z[n]  (one read per reader)
    for (int n = 0; n < r_; ++n) {
      w.seq[static_cast<std::size_t>(n)][0] =
          slots_[static_cast<std::size_t>(n)].z.read(0);
    }
    // 3: write Y[0]; seq[1] and ss still hold the previous operation's
    //    values, so this write does not alter Y[0].seq[1] or Y[0].ss.
    y0_->write(w);
    // 4: read y := Y[1..C-1]  (snapshot of the other Writers)
    inner_->collect(r_, w0_.y);
    // 5: ss[0], ss[k] := item, y[k]
    w.ss[0] = w.item;
    for (int k = 1; k < c_; ++k) {
      w.ss[static_cast<std::size_t>(k)] =
          w0_.y[static_cast<std::size_t>(k - 1)];
    }
    // 6: seq[1] := seq[0]
    for (int n = 0; n < r_; ++n) {
      auto& s = w.seq[static_cast<std::size_t>(n)];
      s[1] = s[0];
    }
    // 7: write Y[0]
    y0_->write(w);
    // 8: return
    return w.item.id;
  }

  // One Read at this level on slot j.
  void collect(int j, std::vector<Item<V>>& out) {
    COMPREG_DCHECK(j >= 0 && j < r_);
    // audit: exempt(waitfree, Read recursion bounded by C - collect/read_general strip one level per call, O(2^C) steps total, paper Theorem 2)
#ifndef NDEBUG
    // relaxed: the RMW's atomicity alone detects overlapping scans;
    // this debug-only guard carries no ordering contract.
    COMPREG_CHECK(!reader_busy_[j].exchange(true, std::memory_order_relaxed),
                  "concurrent scans on one reader slot");
#endif
    if (c_ == 1) {
      out.resize(1);
      out[0] = y0_->read(j, [](const Y0& y) { return y.item; });
      bump(base_reads_[static_cast<std::size_t>(j)].n);
    } else {
      read_general(j, out);
    }
#ifndef NDEBUG
    // relaxed: see the exchange above - debug guard only.
    reader_busy_[j].store(false, std::memory_order_relaxed);
#endif
  }

  // Each read of Y[0] below is one register read that takes from the
  // record only the fields its statement uses (HazardCell::read(j, f)
  // looks at them in place; other cells copy the record first). A
  // HazardCell keeps slot j's node pinned between reads, also across
  // scans, so a level no 0-Write touched since slot j's last visit is
  // read with two loads and a compare, and (with a WordCell Z) its Z[j]
  // write below stores nothing when newseq is unchanged.
  void read_general(int j, std::vector<Item<V>>& out) {
    const std::size_t ju = static_cast<std::size_t>(j);
    ReaderSlot& slot = slots_[ju];
    // 0: read x := Y[0]  (only x.seq[j] is used)
    const std::array<std::uint8_t, 2> xseq =
        y0_->read(j, [ju](const Y0& x) { return x.seq[ju]; });
    // 1: select newseq differing from Writer 0's two copies
    const std::uint8_t newseq = pick_newseq(xseq[0], xseq[1]);
    // 2: write Z[j] := newseq
    slot.z.write(newseq);
    // 3: read a := Y[0]  (a.item, a.wc)
    const ItemWc a = y0_->read(j, item_wc);
    // 4: read b := Y[1..C-1]
    inner_->collect(j, slot.b);
    // 5: read c := Y[0]  (c.item, c.wc)
    const ItemWc c = y0_->read(j, item_wc);
    // 6: read d := Y[1..C-1]
    inner_->collect(j, slot.d);
    // 7: read e := Y[0], and 8's first test on it: if it holds, e.ss
    //    is copied into out inside the read.
    out.resize(static_cast<std::size_t>(c_));
    const bool adopted = y0_->read(j, [&](const Y0& e) {
      const bool adopt =
          e.seq[ju][1] == newseq || e.wc == mod3_plus(a.wc, 2);
      if (adopt) std::copy(e.ss.begin(), e.ss.end(), out.begin());
      return adopt;
    });
    // 8: three-way case analysis
    if (adopted) {
      // Overlapped by "too many" 0-Writes: return an overlapping
      // Write's embedded snapshot.
      bump(slot.cases[kAdopted]);
    } else if (a.wc == c.wc) {
      out[0] = a.item;
      std::copy(slot.b.begin(), slot.b.end(), out.begin() + 1);
      bump(slot.cases[kFirst]);
    } else {  // c.wc == e.wc
      out[0] = c.item;
      std::copy(slot.d.begin(), slot.d.end(), out.begin() + 1);
      bump(slot.cases[kSecond]);
    }
    // 9: return
  }

  const int c_;
  const int r_;
  std::unique_ptr<Cell<Y0>> y0_;
  std::unique_ptr<ReaderSlot[]> slots_;  // null iff c_ == 1
  std::unique_ptr<CompositeRegister> inner_;  // null iff c_ == 1
  std::unique_ptr<BaseReadCount[]> base_reads_;  // null iff c_ > 1
  // Every reader loads the members above on every scan; every 0-Write
  // stores into w0_. The pad keeps the two off one cache line.
  char pad_[64];
  Writer0State w0_;  // Writer 0 private state

#ifndef NDEBUG
  std::unique_ptr<std::atomic<bool>> writer0_busy_;
  std::unique_ptr<std::atomic<bool>[]> reader_busy_;
#endif
};

}  // namespace compreg::core
