// HazardCell<T>: multi-reader single-writer atomic register for
// arbitrary payload types — the practical backend for the construction's
// large Y[0] record.
//
// The writer publishes nodes through one atomic pointer; readers
// protect their node with a per-reader hazard slot before looking at
// it. Reads are linearizable (the pointer load is the linearization
// point) and *lock-free*: a reader retries its protect/verify handshake
// only when a write lands between its two pointer loads, so every retry
// is charged to a concurrent write. For a retry-free, strictly
// wait-free (but slower) cell, see TaggedCell in tagged_cell.h; both
// satisfy the same register contract the paper's construction assumes.
//
// read(j, f) applies a visitor to the protected node in place, so a
// caller that needs one field of a large record copies only that field;
// read(j) is the visitor that copies the whole value.
//
// Hazard slots are sticky: a read leaves its node pinned in slot j, and
// the next read on slot j that finds the same node still current reads
// it with one pointer compare — no store, no fence. The protect/verify
// handshake runs only when a write has landed since the slot's last
// read. A pin is never cleared: it only keeps the writer off that node.
//
// The cell's memory is one block, fixed at construction: the readers'
// hazard slots, a slab of 2*readers+2 nodes and the writer's
// bookkeeping, each slot and each node on cache lines of its own. The
// block is footprint(readers) bytes; a cell either allocates it (one
// allocation) or is built over storage its owner carved for it, as a
// CompositeRegister does for every level's Y[0]. Only
// the initial node is built then; the slab fills first, one node per
// write, so construction touches no more memory than it uses and no
// write allocates a node. A node holds only its value: the free stack,
// the retired list and the scan's marks are arrays of node indices
// after the slab, on lines no reader loads, so a write stores nothing
// into a line an adopting reader is about to read.
//
// Nodes are recycled, not freed. A write takes a node from the free
// stack and copy-assigns into it (reusing, e.g., the capacity of the
// payload's vectors); with the stack empty it builds the next slab
// node; only with the slab full does it scan the hazard slots. The scan
// reads each slot once and marks the index of the node it names, then
// splits the retired indices into kept (marked) and free: O(readers +
// retired) work that dereferences no node. A scan on a full slab finds
// 2*readers+1 retired nodes, at most `readers` of them pinned, so it
// frees at least readers+1 and the next readers+1 writes do not scan:
// N writes make at most ceil(N / (readers+1)) + 1 scans, whatever the
// readers pin (Michael's amortized scan, IEEE TPDS 2004). So pins kept
// across reads, however old, cost no allocation, and the writer reads
// the readers' slot lines at most once per readers+1 writes. The writer
// is wait-free: at most one hazard scan of bounded length per write.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "sched/access.h"
#include "sched/schedule_point.h"
#include "util/assert.h"
#include "util/op_counter.h"
#include "util/space_accounting.h"

namespace compreg::registers {

template <typename T>
class HazardCell {
 public:
  // Bytes of storage a cell with `readers` reader slots lives in: the
  // slots, the node slab and the writer's index arrays, each starting
  // on a cache line when the storage does.
  static std::size_t footprint(int readers) {
    const std::size_t slots = static_cast<std::size_t>(readers);
    const std::size_t nodes = capacity(readers);
    return slots * sizeof(HazardSlot) + nodes * sizeof(Node) +
           nodes * (2 * sizeof(Index) + 1);
  }

  // Builds the cell over `storage`: footprint(readers) bytes on a
  // cache-line boundary that the caller keeps, for the cell's lifetime,
  // for the cell alone. Left uninitialised: only the slots and node 0
  // are built now.
  HazardCell(void* storage, int readers, T initial,
             const char* label = "cell",
             std::uint64_t payload_bits = sizeof(T) * 8)
      : readers_(readers), access_(label, sched::Discipline::kSwmr, readers) {
    COMPREG_CHECK(readers >= 1);
    COMPREG_CHECK(reinterpret_cast<std::uintptr_t>(storage) % kLine == 0,
                  "HazardCell storage starts on a cache line");
    const std::size_t slots = static_cast<std::size_t>(readers);
    hazards_ = static_cast<HazardSlot*>(storage);
    std::uninitialized_default_construct_n(hazards_, slots);
    slab_ = reinterpret_cast<std::byte*>(hazards_ + slots);
    free_ = reinterpret_cast<Index*>(slab_ + capacity() * sizeof(Node));
    retired_ = free_ + capacity();
    marks_ = reinterpret_cast<unsigned char*>(retired_ + capacity());
    std::uninitialized_default_construct_n(free_, 2 * capacity());
    std::uninitialized_default_construct_n(marks_, capacity());
    current_.store(build(std::move(initial)), std::memory_order_relaxed);
    account_register(label, payload_bits, readers);
  }

  // A cell that owns its storage: allocate footprint(readers) bytes,
  // then build the cell over them.
  HazardCell(int readers, T initial, const char* label = "cell",
             std::uint64_t payload_bits = sizeof(T) * 8)
      : HazardCell(allocate(readers), readers, std::move(initial), label,
                   payload_bits) {}

  ~HazardCell() {
    for (Index i = 0; i < nodes_; ++i) node_at(i)->~Node();
  }

  HazardCell(const HazardCell&) = delete;
  HazardCell& operator=(const HazardCell&) = delete;

  int readers() const { return readers_; }

  // Nodes built so far (current + retired + free); never exceeds
  // 2*readers+2, and reaches it only after 2*readers+1 writes.
  // Writer-side: call from the writer or after it is joined.
  std::uint64_t node_count() const { return nodes_; }

  // Hazard scans so far: one per write that found the free stack empty
  // and the slab full; at most one per readers+1 writes, whatever the
  // readers pin. Writer-side: call from the writer or after it is joined.
  std::uint64_t hazard_scans() const { return scans_; }

  // reader_id in [0, readers): each concurrent reader must use a
  // distinct slot (two sequential reads may share one). `f` runs on the
  // node while the hazard slot still protects it and its result is
  // returned by value; it must not touch any other register (it runs
  // inside this one read, after the read's schedule point). The node
  // stays pinned in the slot after the read returns.
  template <typename F>
  auto read(int reader_id, F&& f) {
    COMPREG_DCHECK(reader_id >= 0 && reader_id < readers_);
    sched::point(access_.read(reader_id));
    ++op_counters().reg_reads;
    HazardSlot& slot = hazards_[static_cast<std::size_t>(reader_id)];
    // relaxed: only this reader stores to its slot, so the load returns
    // the slot's last store - the node this reader still pins, if any.
    const Node* const pinned = slot.ptr.load(std::memory_order_relaxed);
    Node* node = current_.load(std::memory_order_seq_cst);
    // Fast path: node == pinned. A pinned node is never recycled
    // (reclaim() keeps every node a slot holds), and only a recycled or
    // fresh node can become current, so a pinned node that is current
    // now has been current ever since this slot validated it: the load
    // above is a valid linearization point, and the payload is the one
    // the validating load synchronized with.
    if (node != pinned) {
      // audit: exempt(waitfree, hazard-pointer protect/verify is lock-free not wait-free - a retry needs a concurrent write; TaggedCell is the strictly wait-free cell)
      for (;;) {
        slot.ptr.store(node, std::memory_order_seq_cst);
        Node* check = current_.load(std::memory_order_seq_cst);
        if (check == node) break;  // protected while still current => safe
        node = check;
      }
    }
    return std::forward<F>(f)(std::as_const(node->value));
  }

  T read(int reader_id) {
    return read(reader_id, [](const T& value) { return value; });
  }

  // Single writer.
  void write(const T& value) {
    sched::point(access_.write());
    ++op_counters().reg_writes;
    if (free_count_ == 0 && nodes_ == capacity()) reclaim();
    Node* node;
    if (free_count_ != 0) {
      // A free node is neither current nor protected by any slot
      // (reclaim() saw no slot holding it after it was retired), so
      // no reader can dereference it: a reader that still holds its
      // address in a slot has not validated it, and validation only
      // succeeds once the exchange below publishes it again, after this
      // assignment. This is the hazard argument that already covers
      // malloc handing a freed address back to `new`.
      node = node_at(free_[--free_count_]);
      node->value = value;
    } else {
      // Free stack empty and slab not yet full: build the next node.
      node = build(value);
    }
    const Node* old = current_.exchange(node, std::memory_order_seq_cst);
    retired_[retired_count_++] = index_of(old);
  }

 private:
  static constexpr std::size_t kLine = 64;
  using Index = std::uint32_t;

  // Line-aligned, so a reader's fields (a Y[0] record's item, wc and
  // seq[j]) share the node's first line. The value is all a node holds:
  // the writer keeps its bookkeeping in the index arrays.
  struct alignas(kLine) Node {
    T value;
  };
  struct alignas(kLine) HazardSlot {
    std::atomic<Node*> ptr{nullptr};
  };
  struct FreeBlock {
    void operator()(void* block) const { ::operator delete(block); }
  };
  struct OwnedStorage {
    std::unique_ptr<void, FreeBlock> block;
    void* start;  // the first cache line inside `block`
  };

  // One plain allocation, aligned by hand: the aligned operator new
  // made construction measurably slower.
  static OwnedStorage allocate(int readers) {
    COMPREG_CHECK(readers >= 1);
    const std::size_t bytes = footprint(readers);
    std::size_t space = bytes + kLine - 1;
    OwnedStorage storage{
        std::unique_ptr<void, FreeBlock>(::operator new(space)), nullptr};
    storage.start = storage.block.get();
    std::align(kLine, bytes, storage.start, space);
    return storage;
  }

  HazardCell(OwnedStorage storage, int readers, T initial, const char* label,
             std::uint64_t payload_bits)
      : HazardCell(storage.start, readers, std::move(initial), label,
                   payload_bits) {
    block_ = std::move(storage.block);
  }

  // readers+1 free nodes per scan: at most `readers` of the other
  // 2*readers+1 nodes are pinned when the slab is full.
  static Index capacity(int readers) {
    return 2 * static_cast<Index>(readers) + 2;
  }
  Index capacity() const { return capacity(readers_); }

  Node* node_at(Index i) const {
    return std::launder(reinterpret_cast<Node*>(slab_ + i * sizeof(Node)));
  }

  // A node's slab index. Pointer arithmetic only: the node is not
  // dereferenced.
  Index index_of(const Node* node) const {
    return static_cast<Index>(
        (reinterpret_cast<const std::byte*>(node) - slab_) / sizeof(Node));
  }

  // Builds the next slab node in place. Writer-private (and the
  // constructor's): the bound is a release check because it guards a
  // fixed buffer.
  template <typename U>
  Node* build(U&& value) {
    COMPREG_CHECK(nodes_ < capacity(),
                  "HazardCell slab holds 2*readers+2 nodes");
    Node* node = ::new (slab_ + nodes_ * sizeof(Node))
        Node{std::forward<U>(value)};
    ++nodes_;
    return node;
  }

  void reclaim() {
    // Writer-private, and run by a write only with the free stack empty
    // and the slab full. Keep the retired nodes some reader protects;
    // move the rest to the free stack. Each slot is read once and marks
    // at most one node, so at most readers_ nodes stay retired and at
    // least readers_+1 of the 2*readers_+1 retired nodes are freed.
    // Every retired node left current_ in an earlier write's exchange,
    // so the scan runs after its retirement, as the hazard argument
    // needs. Only indices and marks are touched, never a node.
    // audit: exempt(schedpoint, reclamation, not communication - see below)
    // The hazard scan's outcome decides which retired nodes are recycled
    // but never any value a process observes: readers publish only to
    // their own slot, and the caller (write) has already announced its
    // labeled point.
    ++scans_;
    std::fill_n(marks_, capacity(), 0);
    for (int j = 0; j < readers_; ++j) {
      const Node* hazard = hazards_[static_cast<std::size_t>(j)].ptr.load(
          std::memory_order_seq_cst);
      if (hazard != nullptr) marks_[index_of(hazard)] = 1;
    }
    const Index count = std::exchange(retired_count_, 0);
    for (Index i = 0; i < count; ++i) {
      const Index index = retired_[i];
      if (marks_[index] != 0) {
        retired_[retired_count_++] = index;
      } else {
        free_[free_count_++] = index;
      }
    }
  }

  const int readers_;
  sched::AccessLabel access_;
  std::atomic<Node*> current_{nullptr};
  HazardSlot* hazards_ = nullptr;  // readers_ slots at the block's head
  std::byte* slab_ = nullptr;      // capacity() nodes after the slots
  std::unique_ptr<void, FreeBlock> block_;  // null over caller storage
  // Every read loads the members above; every write stores into the
  // ones below. The pad keeps the two off one cache line.
  char pad_[64];
  // Writer-private: the free stack and the retired list (node indices,
  // capacity() each, after the slab), the scan's per-node marks, the
  // built-node count and the scan count.
  Index* free_ = nullptr;
  Index* retired_ = nullptr;
  unsigned char* marks_ = nullptr;
  Index free_count_ = 0;
  Index retired_count_ = 0;
  Index nodes_ = 0;
  std::uint64_t scans_ = 0;
};

}  // namespace compreg::registers
