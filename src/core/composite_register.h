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
// Memory. The paper fixes the space, S(C,B,1,R), from C, B and R alone
// (Section 4.1), and so is this register's footprint: the outermost
// constructor lays out all C levels and makes one allocation. Per
// level, the block holds the level's own state (the outermost level's
// is the object itself), Writer 0's statement-4 buffer, the Z cells,
// each reader slot's line of counters and its statement-4/6 buffers,
// and the Y[0] cell (with a HazardCell's slots, slab and index arrays),
// each part on cache lines of its own; docs/memory_model.md maps which
// thread writes which line. Cells are built in the recursion's order —
// level 0's Z cells, then level 1's, ..., then each level's Y[0] from
// the innermost out — and, when the thread has no CellIdArena open,
// draw their ids from one reserved range. No scan or update allocates,
// the first ones included, within the Y0Record inline budgets: with more
// than 8 reader slots at a level with C > 1, or more than six 64-bit
// components, a record spills seq or ss to the heap each time one is
// built (a write into a fresh slab node, a copy out of a cell). Cell
// backends other than HazardCell are placed in the block and allocate
// their own internals.
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
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/item.h"
#include "core/snapshot.h"
#include "registers/hazard_cell.h"
#include "registers/register_concepts.h"
#include "registers/word_register.h"
#include "sched/access.h"
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

  class Carver;

 public:
  // Performs the paper's assumed Initial Writes: every component starts
  // holding `initial` with id 0.
  CompositeRegister(int components, int num_readers, const V& initial)
      : c_(components), r_(num_readers) {
    COMPREG_CHECK(components >= 1);
    COMPREG_CHECK(num_readers >= 1);
    // Size every level, then make the one plain allocation and align it
    // by hand (the aligned operator new made construction slower).
    Carver sizing(nullptr);
    for (int k = 0; k < c_; ++k) carve(sizing, c_ - k, r_ + k);
    const std::size_t bytes = sizing.size();
    std::size_t space = bytes + kLine - 1;
    block_.reset(::operator new(space));
    void* start = block_.get();
    Carver placing(
        static_cast<std::byte*>(std::align(kLine, bytes, start, space)));
    // One reservation for the ids of the cells build() makes. A backend
    // that builds more labels draws the rest from the shared counter,
    // which continues where the range ends.
    std::optional<sched::CellIdArena> ids;
    if (!sched::CellIdArena::active()) ids.emplace(cells_built(c_, r_));
    build(placing, initial);
    COMPREG_CHECK(placing.size() == bytes, "levels placed as sized");
  }

  ~CompositeRegister() override {
    // Inner levels first, then this level's Z cells and buffers, then its
    // Y[0]; the outermost level's block_ is freed after this body.
    const auto rs = static_cast<std::size_t>(r_);
    const auto items = static_cast<std::size_t>(c_ - 1);
    if (inner_ != nullptr) std::destroy_at(inner_);
    if (z_ != nullptr) std::destroy_n(z_, rs);
    for (std::size_t j = 0; j < rs; ++j) {
      std::destroy_n(lines_[j].b, 2 * items);
    }
    std::destroy_n(lines_, rs);
    std::destroy_n(w0_.y, items);
    std::destroy_at(y0_);
  }

  CompositeRegister(const CompositeRegister&) = delete;
  CompositeRegister& operator=(const CompositeRegister&) = delete;

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
    COMPREG_CHECK(!w0_.busy.exchange(true, std::memory_order_relaxed),
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
    w0_.busy.store(false, std::memory_order_relaxed);
#endif
    return id;
  }

  // -------------------------------------------------------------------
  // Read operation (Figure 3, Reader procedure).
  // -------------------------------------------------------------------
  void scan_items(int reader_id, std::vector<Item<V>>& out) override {
    out.resize(static_cast<std::size_t>(c_));
    collect(reader_id, out.data());
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
      const auto& n = lines_[j].counts;
      s.adopted_snapshot += peek(n[kAdopted]);
      s.first_collect += peek(n[kFirst]);
      s.second_collect += peek(n[kSecond]);
      s.base_reads += peek(n[kBaseRead]);
    }
    return s;
  }

  // Same counters for every recursion level, outermost first (the last
  // entry is the base case, which only counts degenerate reads). Level
  // l is visited 2^l times per top-level scan.
  std::vector<ScanCaseStats> scan_case_stats_by_level() const {
    std::vector<ScanCaseStats> out;
    for (const CompositeRegister* level = this; level != nullptr;
         level = level->inner_) {
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

  static constexpr std::size_t kLine = 64;
  static_assert(alignof(Item<V>) <= kLine, "buffers start on a line");
  // A HazardCell Y[0] is built over storage carved from the block; any
  // other backend is placed in the block and allocates its own.
  static constexpr bool kCellInBlock =
      requires(int readers) { Cell<Y0>::footprint(readers); };

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
    Y0 rec;                 // item, seq, ss, wc
    Item<V>* y = nullptr;  // statement 4 snapshot buffer, C-1 items
#ifndef NDEBUG
    std::atomic<bool> busy{false};  // debug-only overlap guard
#endif
  };

  // Statement-8 outcomes, and the C == 1 level's reads, indexing
  // ReaderLine::counts.
  enum Count : std::uint8_t { kAdopted, kFirst, kSecond, kBaseRead, kCounts };

  // Z[j] on lines of its own: reader j writes it, Writer 0 reads it on
  // every 0-Write, and nothing else shares its lines.
  struct alignas(kLine) ZSlot {
    SmallCell<std::uint8_t> z{/*readers=*/1, std::uint8_t{0}, "Z",
                              /*payload_bits=*/2};
  };

  // Reader slot j's private line: its counters, where its statement-4
  // and statement-6 buffers (C-1 items each, on lines of their own) are,
  // and its debug overlap guard. Reader j alone writes it.
  struct alignas(kLine) ReaderLine {
    std::atomic<std::uint64_t> counts[kCounts]{};
    Item<V>* b = nullptr;
    Item<V>* d = nullptr;
#ifndef NDEBUG
    std::atomic<bool> busy{false};
#endif
  };

  // Where one level's parts sit in the block.
  struct Parts {
    CompositeRegister* inner = nullptr;  // c > 1
    ZSlot* z = nullptr;                  // c > 1
    Item<V>* y = nullptr;
    ReaderLine* lines = nullptr;
    std::byte* buffers = nullptr;  // reader j's b and d at j * stride
    Cell<Y0>* y0 = nullptr;
    std::byte* y0_storage = nullptr;  // kCellInBlock
  };

  // Hands out the block in order, each part from a fresh cache line, so
  // no two parts share a line. Built over no block it only measures: the
  // constructor carves every level twice, once to size the block and
  // once to place into it.
  class Carver {
   public:
    explicit Carver(std::byte* base) : base_(base) {}

    template <typename T>
    T* take(std::size_t n) {
      constexpr std::size_t align = std::max(kLine, alignof(T));
      end_ = (end_ + align - 1) / align * align;
      T* at = base_ == nullptr ? nullptr
                               : reinterpret_cast<T*>(base_ + end_);
      end_ += n * sizeof(T);
      return at;
    }
    std::size_t size() const { return end_; }

   private:
    std::byte* base_;
    std::size_t end_ = 0;
  };

  struct FreeBlock {
    void operator()(void* block) const { ::operator delete(block); }
  };

  // The cells build() makes itself: a Y[0] per level and R+k Z cells at
  // each level k < C-1. The default backends take one cell id each, so
  // this is the construction's id count.
  static std::uint64_t cells_built(int components, int num_readers) {
    std::uint64_t cells = static_cast<std::uint64_t>(components);
    for (int k = 0; k + 1 < components; ++k) {
      cells += static_cast<std::uint64_t>(num_readers + k);
    }
    return cells;
  }

  // Reader j's b and d, rounded up to whole lines.
  static std::size_t buffer_stride(int c) {
    const std::size_t bytes =
        2 * static_cast<std::size_t>(c - 1) * sizeof(Item<V>);
    return (bytes + kLine - 1) / kLine * kLine;
  }

  // One level's parts, in block order.
  static Parts carve(Carver& block, int c, int r) {
    const auto rs = static_cast<std::size_t>(r);
    Parts at;
    if (c > 1) {
      at.inner = block.template take<CompositeRegister>(1);
      at.z = block.template take<ZSlot>(rs);
    }
    at.y = block.template take<Item<V>>(static_cast<std::size_t>(c - 1));
    at.lines = block.template take<ReaderLine>(rs);
    at.buffers = block.template take<std::byte>(rs * buffer_stride(c));
    at.y0 = block.template take<Cell<Y0>>(1);
    if constexpr (kCellInBlock) {
      at.y0_storage = block.template take<std::byte>(Cell<Y0>::footprint(r));
    }
    return at;
  }

  // An inner level, built in the outermost level's block.
  CompositeRegister(Carver& block, int components, int num_readers,
                    const V& initial)
      : c_(components), r_(num_readers) {
    build(block, initial);
  }

  // Builds this level and, through the recursion, every inner one, in
  // the parts carve() assigns them: Z cells here, then the inner levels,
  // then this level's Y[0].
  void build(Carver& block, const V& initial) {
    const Parts at = carve(block, c_, r_);
    const auto rs = static_cast<std::size_t>(r_);
    const auto items = static_cast<std::size_t>(c_ - 1);
    const Item<V> init_item{initial, 0};

    // Writer 0's private record starts as Y[0]'s initial value.
    Y0& init = w0_.rec;
    init.item = init_item;
    w0_.y = at.y;
    std::uninitialized_fill_n(w0_.y, items, init_item);
    lines_ = at.lines;
    std::uninitialized_default_construct_n(lines_, rs);
    for (std::size_t j = 0; j < rs; ++j) {
      auto* b = reinterpret_cast<Item<V>*>(at.buffers + j * buffer_stride(c_));
      std::uninitialized_fill_n(b, 2 * items, init_item);
      lines_[j].b = b;
      lines_[j].d = b + items;
    }
    if (c_ > 1) {
      init.seq = {rs, {0, 0}};
      init.ss = {static_cast<std::size_t>(c_), init_item};
      // Z[j] (written by reader j, read by Writer 0).
      z_ = at.z;
      std::uninitialized_default_construct_n(z_, rs);
      // Y[1..C-1]: the recursion, with reader slot R reserved for
      // Writer 0's snapshots (Figure 2).
      inner_ = ::new (at.inner) CompositeRegister(block, c_ - 1, r_ + 1,
                                                  initial);
    }
    if constexpr (kCellInBlock) {
      y0_ = ::new (at.y0) Cell<Y0>(at.y0_storage, r_, init, "Y0", y0_bits());
    } else {
      y0_ = ::new (at.y0) Cell<Y0>(r_, init, "Y0", y0_bits());
    }
  }

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

  // Kept out of line: inlined into a caller's loop, GCC 12 warns that a
  // std::variant value the caller passes may be destroyed uninitialized
  // (a -Wmaybe-uninitialized false positive).
  [[gnu::noinline]] std::uint64_t write0(const V& value) {
    Y0& w = w0_.rec;
    // 0: wc, item.val, item.id := wc (+) 1, val, item.id + 1
    w.wc = mod3_plus(w.wc, 1);
    w.item = Item<V>{value, w.item.id + 1};
    // 1, 2.n: read seq[0, n] := Z[n]  (one read per reader)
    for (int n = 0; n < r_; ++n) {
      w.seq[static_cast<std::size_t>(n)][0] =
          z_[static_cast<std::size_t>(n)].z.read(0);
    }
    // 3: write Y[0]; seq[1] and ss still hold the previous operation's
    //    values, so this write does not alter Y[0].seq[1] or Y[0].ss.
    y0_->write(w);
    // 4: read y := Y[1..C-1]  (snapshot of the other Writers)
    inner_->collect(r_, w0_.y);
    // 5: ss[0], ss[k] := item, y[k]
    w.ss[0] = w.item;
    for (int k = 1; k < c_; ++k) {
      w.ss[static_cast<std::size_t>(k)] = w0_.y[k - 1];
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

  // One Read at this level on slot j, into out[0..C-1].
  void collect(int j, Item<V>* out) {
    COMPREG_DCHECK(j >= 0 && j < r_);
    // audit: exempt(waitfree, Read recursion bounded by C - collect/read_general strip one level per call, O(2^C) steps total, paper Theorem 2)
    ReaderLine& line = lines_[static_cast<std::size_t>(j)];
#ifndef NDEBUG
    // relaxed: the RMW's atomicity alone detects overlapping scans;
    // this debug-only guard carries no ordering contract.
    COMPREG_CHECK(!line.busy.exchange(true, std::memory_order_relaxed),
                  "concurrent scans on one reader slot");
#endif
    if (c_ == 1) {
      out[0] = y0_->read(j, [](const Y0& y) { return y.item; });
      bump(line.counts[kBaseRead]);
    } else {
      read_general(j, line, out);
    }
#ifndef NDEBUG
    // relaxed: see the exchange above - debug guard only.
    line.busy.store(false, std::memory_order_relaxed);
#endif
  }

  // Each read of Y[0] below is one register read that takes from the
  // record only the fields its statement uses (HazardCell::read(j, f)
  // looks at them in place; other cells copy the record first). A
  // HazardCell keeps slot j's node pinned between reads, also across
  // scans, so a level no 0-Write touched since slot j's last visit is
  // read with two loads and a compare, and (with a WordCell Z) its Z[j]
  // write below stores nothing when newseq is unchanged.
  void read_general(int j, ReaderLine& line, Item<V>* out) {
    const std::size_t ju = static_cast<std::size_t>(j);
    // 0: read x := Y[0]  (only x.seq[j] is used)
    const std::array<std::uint8_t, 2> xseq =
        y0_->read(j, [ju](const Y0& x) { return x.seq[ju]; });
    // 1: select newseq differing from Writer 0's two copies
    const std::uint8_t newseq = pick_newseq(xseq[0], xseq[1]);
    // 2: write Z[j] := newseq
    z_[ju].z.write(newseq);
    // 3: read a := Y[0]  (a.item, a.wc)
    const ItemWc a = y0_->read(j, item_wc);
    // 4: read b := Y[1..C-1]
    inner_->collect(j, line.b);
    // 5: read c := Y[0]  (c.item, c.wc)
    const ItemWc c = y0_->read(j, item_wc);
    // 6: read d := Y[1..C-1]
    inner_->collect(j, line.d);
    // 7: read e := Y[0], and 8's first test on it: if it holds, e.ss
    //    is copied into out inside the read.
    const bool adopted = y0_->read(j, [&](const Y0& e) {
      const bool adopt =
          e.seq[ju][1] == newseq || e.wc == mod3_plus(a.wc, 2);
      if (adopt) std::copy(e.ss.begin(), e.ss.end(), out);
      return adopt;
    });
    // 8: three-way case analysis
    if (adopted) {
      // Overlapped by "too many" 0-Writes: return an overlapping
      // Write's embedded snapshot.
      bump(line.counts[kAdopted]);
    } else if (a.wc == c.wc) {
      out[0] = a.item;
      std::copy_n(line.b, c_ - 1, out + 1);
      bump(line.counts[kFirst]);
    } else {  // c.wc == e.wc
      out[0] = c.item;
      std::copy_n(line.d, c_ - 1, out + 1);
      bump(line.counts[kSecond]);
    }
    // 9: return
  }

  const int c_;
  const int r_;
  Cell<Y0>* y0_ = nullptr;
  ZSlot* z_ = nullptr;                  // null iff c_ == 1
  ReaderLine* lines_ = nullptr;         // r_ lines, one per reader slot
  CompositeRegister* inner_ = nullptr;  // null iff c_ == 1
  // The outermost level's block, holding every level; null in the inner
  // levels, which live in it.
  std::unique_ptr<void, FreeBlock> block_;
  // Every reader loads the members above on every scan; every 0-Write
  // stores into w0_. The pad keeps the two off one cache line.
  char pad_[64];
  Writer0State w0_;  // Writer 0 private state
};

}  // namespace compreg::core
