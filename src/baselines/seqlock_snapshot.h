// SeqlockSnapshot: optimistic-read baseline.
//
// Writers serialize on a spinlock and bump a version counter around
// their write (odd while a write is in flight); readers re-read the
// version and retry until they observe a stable, even version. Reads
// are invisible (no reader writes shared memory — contrast with the
// paper's Z[j] registers and the handshake bits of [1], both of which
// exist precisely because invisible readers cannot be wait-free).
// Readers starve under continuous writes, which bench_waitfreedom
// measures.
//
// Payloads are stored in std::atomic slots so torn reads are excluded
// by construction rather than by the usual seqlock benign-race hand
// waving; V must be trivially copyable.
//
// The shared cells (version counter, writer lock, per-component slots)
// deliberately violate the paper's SWMR substrate — writers of any
// component write the shared version word and lock. They are therefore
// declared Discipline::kMrmw at their labeled schedule points: the
// conformance analyzer tracks them but exempts them from the
// single-writer rule, which documents (and machine-checks) exactly
// where this baseline leaves the substrate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/snapshot.h"
#include "sched/access.h"
#include "sched/schedule_point.h"
#include "util/assert.h"

namespace compreg::baselines {

template <typename V>
class SeqlockSnapshot final : public core::Snapshot<V> {
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  SeqlockSnapshot(int components, int num_readers, const V& initial)
      : c_(components), r_(num_readers),
        version_access_("seqlock.version", sched::Discipline::kMrmw, 0),
        lock_access_("seqlock.lock", sched::Discipline::kMrmw, 0),
        slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(components))) {
    COMPREG_CHECK(components >= 1);
    COMPREG_CHECK(num_readers >= 1);
    slot_access_.reserve(static_cast<std::size_t>(c_));
    for (int k = 0; k < c_; ++k) {
      slots_[static_cast<std::size_t>(k)].value.store(
          initial, std::memory_order_relaxed);
      slot_access_.emplace_back("seqlock.slot", sched::Discipline::kMrmw, 0);
    }
    stats_ = std::make_unique<SlotStats[]>(static_cast<std::size_t>(r_));
  }

  int components() const override { return c_; }
  int readers() const override { return r_; }

  std::uint64_t update(int component, const V& value) override {
    const std::size_t k = static_cast<std::size_t>(component);
    // audit: exempt(waitfree, lock-based baseline - writers serialize on the spinlock by design; bench_waitfreedom E5 measures it)
    for (;;) {
      // One schedule point per acquisition attempt, so a spinning
      // writer keeps yielding under the simulator instead of wedging
      // the lockstep.
      sched::point(lock_access_.write());
      // acquire pairs with the release clear() below: the previous
      // writer's slot/version stores happen-before this critical section.
      if (!writer_lock_.test_and_set(std::memory_order_acquire)) break;
      // spin: writers serialize (not wait-free; that is the point)
    }
    sched::point(version_access_.write());
    // Boehm seqlock writer: the odd bump may be relaxed because the
    // release slot stores below keep it ordered before themselves.
    version_.fetch_add(1, std::memory_order_relaxed);  // now odd
    sched::point(slot_access_[k].write());
    // relaxed: the lock serializes writers, so this writer's own last
    // store (or the previous holder's, handed over by the lock) is read.
    const std::uint64_t id = slots_[k].id.load(std::memory_order_relaxed) + 1;
    // release: a reader whose acquire load sees this store also sees
    // the odd bump above, so its v2 recheck fails (Boehm seqlock writer,
    // data stores as release instead of a release fence).
    slots_[k].value.store(value, std::memory_order_release);
    slots_[k].id.store(id, std::memory_order_release);  // release: as above
    sched::point(version_access_.write());
    // release: a reader that observes this even version also observes
    // the slot stores above (pairs with the reader's acquire of v1).
    version_.fetch_add(1, std::memory_order_release);  // even again
    sched::point(lock_access_.write());
    // release: hands the critical section to the next writer's acquire
    // test_and_set.
    writer_lock_.clear(std::memory_order_release);
    return id;
  }

  void scan_items(int reader_id, std::vector<core::Item<V>>& out) override {
    out.resize(static_cast<std::size_t>(c_));
    std::uint64_t attempts = 0;
    // audit: exempt(waitfree, optimistic-read baseline - readers retry until a quiet version by design; starvation measured by bench_waitfreedom E5)
    for (;;) {
      ++attempts;
      sched::point(version_access_.read());
      // Boehm seqlock reader: acquire pairs with the writer's release
      // bump, so the slot loads below see at least the v1 snapshot.
      const std::uint64_t v1 = version_.load(std::memory_order_acquire);
      if (v1 % 2 != 0) continue;  // write in flight
      for (int k = 0; k < c_; ++k) {
        const std::size_t ku = static_cast<std::size_t>(k);
        sched::point(slot_access_[ku].read());
        // acquire: keeps the v2 validation load below from drifting
        // before this load, and pairs with the writer's release store,
        // so a view torn by a write fails the recheck (Boehm seqlock
        // reader, data loads as acquire instead of an acquire fence).
        out[ku].val = slots_[ku].value.load(std::memory_order_acquire);
        out[ku].id = slots_[ku].id.load(std::memory_order_acquire);  // acquire: as above
      }
      sched::point(version_access_.read());
      // relaxed: already ordered after the slot loads by their acquire.
      const std::uint64_t v2 = version_.load(std::memory_order_relaxed);
      if (v1 == v2) break;
    }
    SlotStats& st = stats_[static_cast<std::size_t>(reader_id)];
    st.scans++;
    st.total_attempts += attempts;
    if (attempts > st.max_attempts) st.max_attempts = attempts;
  }

  using core::Snapshot<V>::scan;
  using core::Snapshot<V>::scan_items;

  struct ScanStats {
    std::uint64_t scans = 0;
    std::uint64_t total_attempts = 0;
    std::uint64_t max_attempts = 0;
  };
  ScanStats stats(int reader_id) const {
    const SlotStats& st = stats_[static_cast<std::size_t>(reader_id)];
    return ScanStats{st.scans, st.total_attempts, st.max_attempts};
  }

 private:
  struct alignas(64) Slot {
    std::atomic<V> value{};
    std::atomic<std::uint64_t> id{0};
  };
  struct alignas(64) SlotStats {
    std::uint64_t scans = 0;
    std::uint64_t total_attempts = 0;
    std::uint64_t max_attempts = 0;
  };

  const int c_;
  const int r_;
  sched::AccessLabel version_access_;
  sched::AccessLabel lock_access_;
  std::vector<sched::AccessLabel> slot_access_;  // one per component
  // Readers spin on version_ while contending writers hammer the lock;
  // keep the two hot words on separate cache lines (layout audit).
  alignas(64) std::atomic<std::uint64_t> version_{0};
  alignas(64) std::atomic_flag writer_lock_ = ATOMIC_FLAG_INIT;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<SlotStats[]> stats_;
};

}  // namespace compreg::baselines
