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
// The cell makes one allocation, at construction: a block holding the
// readers' hazard slots and room for readers+2 nodes, each slot and
// each node on cache lines of its own. Only the initial node is built
// then; a write builds the next node in place when it needs one, so
// construction touches no more memory than it uses and no write
// allocates a node. Nodes are recycled, not freed. A write takes a node
// from its private free list and copy-assigns into it (reusing, e.g.,
// the capacity of the payload's vectors). Only a write that finds the
// free list empty scans the hazard slots: the scan moves every retired
// node no slot holds to the free list, and the write builds a fresh
// node only if the scan freed nothing. With the pool grown and slots
// pinning k distinct retired nodes, one scan refills the list for the
// next readers+1-k writes (Michael's amortized scan, IEEE TPDS 2004):
// idle readers whose last reads saw the same node make the writer read
// their slot lines once per `readers` writes, not once per write.
// At most readers+2 nodes are ever built: a scan that frees nothing
// leaves at most `readers` retired nodes (each held by a slot), plus
// the current node, plus the one built. So pins kept across reads,
// however old, cost no allocation. The writer is wait-free: at most one
// hazard scan of bounded length per write.
#pragma once

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
  HazardCell(int readers, T initial, const char* label = "cell",
             std::uint64_t payload_bits = sizeof(T) * 8)
      : readers_(readers), access_(label, sched::Discipline::kSwmr, readers) {
    COMPREG_CHECK(readers >= 1);
    // One plain allocation, aligned by hand: the slots, then the node
    // slab, both in whole cache lines. Left uninitialised: only the
    // slots and node 0 are built now.
    const std::size_t slots = static_cast<std::size_t>(readers);
    const std::size_t bytes = slots * sizeof(HazardSlot) +
                              capacity() * sizeof(Node);
    std::size_t space = bytes + kLine - 1;
    block_.reset(::operator new(space));
    void* start = block_.get();
    hazards_ = static_cast<HazardSlot*>(std::align(kLine, bytes, start, space));
    std::uninitialized_default_construct_n(hazards_, slots);
    slab_ = reinterpret_cast<std::byte*>(hazards_ + slots);
    current_.store(build(std::move(initial)), std::memory_order_relaxed);
    account_register(label, payload_bits, readers);
  }

  ~HazardCell() {
    for (std::uint64_t i = 0; i < nodes_; ++i) node_at(i)->~Node();
  }

  HazardCell(const HazardCell&) = delete;
  HazardCell& operator=(const HazardCell&) = delete;

  int readers() const { return readers_; }

  // Nodes built so far (current + retired + free); never exceeds
  // readers+2. Writer-side: call from the writer or after it is joined.
  std::uint64_t node_count() const { return nodes_; }

  // Hazard scans so far: one per write that found the free list empty;
  // with idle readers at most one per readers+1 writes once the pool is
  // warm. Writer-side: call from the writer or after it is joined.
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
    if (free_ == nullptr) reclaim();
    Node* node = free_;
    if (node != nullptr) {
      // A free-list node is neither current nor protected by any slot
      // (reclaim() saw no slot holding it after it was retired), so
      // no reader can dereference it: a reader that still holds its
      // address in a slot has not validated it, and validation only
      // succeeds once the exchange below publishes it again, after this
      // assignment. This is the hazard argument that already covers
      // malloc handing a freed address back to `new`.
      free_ = node->next;
      node->value = value;
    } else {
      // The scan freed nothing, so every retired node is held by a slot:
      // at most readers_ retired nodes plus the current one are built,
      // and the slab has room for this one.
      node = build(value);
    }
    Node* old = current_.exchange(node, std::memory_order_seq_cst);
    old->next = retired_;
    retired_ = old;
    ++retired_count_;
  }

 private:
  static constexpr std::size_t kLine = 64;

  // Line-aligned, so a reader's fields (a Y[0] record's item, wc and
  // seq[j]) share the node's first line.
  struct alignas(kLine) Node {
    T value;
    Node* next = nullptr;  // retired/free list link, writer-private
    bool held = false;     // reclaim() scratch mark, writer-private
  };
  struct alignas(kLine) HazardSlot {
    std::atomic<Node*> ptr{nullptr};
  };
  struct FreeBlock {
    void operator()(void* block) const { ::operator delete(block); }
  };

  std::size_t capacity() const {
    return static_cast<std::size_t>(readers_) + 2;
  }

  Node* node_at(std::uint64_t i) const {
    return std::launder(reinterpret_cast<Node*>(slab_ + i * sizeof(Node)));
  }

  // Builds the next slab node in place. Writer-private (and the
  // constructor's): the bound is a release check because it guards a
  // fixed buffer.
  template <typename U>
  Node* build(U&& value) {
    COMPREG_CHECK(nodes_ < capacity(), "HazardCell slab holds readers+2 nodes");
    Node* node = ::new (slab_ + nodes_ * sizeof(Node))
        Node{std::forward<U>(value)};
    ++nodes_;
    return node;
  }

  void reclaim() {
    // Writer-private, and run by a write only on an empty free list.
    // Keep the retired nodes some reader protects; move the rest to the
    // free list. Each slot is read once and marks at most one node, so
    // at most readers_ nodes stay retired afterwards. Every retired node
    // left current_ in an earlier write's exchange, so the scan runs
    // after its retirement, as the hazard argument needs.
    // audit: exempt(schedpoint, reclamation, not communication - see below)
    // The hazard scan's outcome decides which retired nodes are recycled
    // but never any value a process observes: readers publish only to
    // their own slot, and the caller (write) has already announced its
    // labeled point.
    ++scans_;
    for (int j = 0; j < readers_; ++j) {
      const Node* hazard = hazards_[static_cast<std::size_t>(j)].ptr.load(
          std::memory_order_seq_cst);
      Node* node = retired_;
      for (std::size_t i = 0; i < retired_count_; ++i, node = node->next) {
        if (node == hazard) node->held = true;
      }
    }
    Node* node = std::exchange(retired_, nullptr);
    const std::size_t count = std::exchange(retired_count_, 0);
    for (std::size_t i = 0; i < count; ++i) {
      Node* next = node->next;
      if (std::exchange(node->held, false)) {
        node->next = retired_;
        retired_ = node;
        ++retired_count_;
      } else {
        node->next = free_;
        free_ = node;
      }
      node = next;
    }
  }

  const int readers_;
  sched::AccessLabel access_;
  std::atomic<Node*> current_{nullptr};
  HazardSlot* hazards_ = nullptr;  // readers_ slots at the block's head
  std::byte* slab_ = nullptr;      // capacity() nodes after the slots
  std::unique_ptr<void, FreeBlock> block_;
  // Every read loads the members above; every write stores into the
  // ones below. The pad keeps the two off one cache line.
  char pad_[64];
  // Writer-private: retired nodes (replaced, maybe still protected),
  // free nodes (unprotected, ready for reuse), the built-node count and
  // the scan count.
  Node* retired_ = nullptr;
  std::size_t retired_count_ = 0;
  Node* free_ = nullptr;
  std::uint64_t nodes_ = 0;
  std::uint64_t scans_ = 0;
};

}  // namespace compreg::registers
