// Simpson's four-slot fully asynchronous SWSR atomic register.
//
// H. R. Simpson, "Four-slot fully asynchronous communication mechanism"
// (IEE Proceedings, 1990). One writer, one reader, arbitrary payload
// type, wait-free on both sides with a *constant* number of steps and
// no dynamic allocation. The four data slots are arranged as 2 pairs x
// 2 indexes; the control-bit protocol guarantees the reader and writer
// never touch the same slot concurrently, which is what makes the plain
// (non-atomic) payload copies safe.
//
// Used as the leaf register of the strictly wait-free TaggedCell
// (FullInfoCell's MRSW-from-SWSR construction) and available on its
// own. Note this is a *building block* below the MRSW model
// granularity: it does not count toward op_counters() and does not take
// schedule points; the cells built from it do. Each operation is still
// reported to the conformance analyzer via sched::observe() — the
// four-slot protocol is only correct under SWSR discipline (one writing
// and one reading process), so the analyzer certifies exactly that.
#pragma once

#include <atomic>
#include <cstdint>

#include "sched/access.h"
#include "sched/schedule_point.h"

namespace compreg::registers {

template <typename T>
class SimpsonRegister {
 public:
  explicit SimpsonRegister(const T& initial)
      : access_("simpson", sched::Discipline::kSwsr, /*readers=*/1) {
    for (auto& pair : data_) {
      for (auto& slot : pair) slot = initial;
    }
  }

  SimpsonRegister(const SimpsonRegister&) = delete;
  SimpsonRegister& operator=(const SimpsonRegister&) = delete;

  // Runs inside the enclosing cell's schedule point (FullInfoCell).
  static constexpr bool kTakesPoints = false;

  // Single writer.
  void write(const T& item) {
    sched::observe(access_.write());
    const std::uint8_t wp =
        1 - reading_.load(std::memory_order_seq_cst);           // avoid reader
    const std::uint8_t wi =
        1 - slot_[wp].load(std::memory_order_seq_cst);          // avoid last
    data_[wp][wi] = item;                                       // plain copy
    slot_[wp].store(wi, std::memory_order_seq_cst);
    latest_.store(wp, std::memory_order_seq_cst);
  }

  // Single reader.
  T read() {
    sched::observe(access_.read(0));
    const std::uint8_t rp = latest_.load(std::memory_order_seq_cst);
    reading_.store(rp, std::memory_order_seq_cst);
    const std::uint8_t ri = slot_[rp].load(std::memory_order_seq_cst);
    return data_[rp][ri];                                       // plain copy
  }

 private:
  sched::AccessLabel access_;
  T data_[2][2];
  // Writer-written control words share a line on purpose (one writer);
  // the reader-written handshake word gets its own line so reader
  // traffic does not invalidate the writer's line (layout audit).
  // audit: exempt(layout, latest_ and slot_ are written only by the single writer - one shared line is the cheap correct layout)
  std::atomic<std::uint8_t> latest_{0};   // written by writer
  std::atomic<std::uint8_t> slot_[2]{0, 0};  // written by writer
  alignas(64) std::atomic<std::uint8_t> reading_{0};  // written by reader
};

}  // namespace compreg::registers
