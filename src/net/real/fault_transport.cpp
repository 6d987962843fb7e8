#include "net/real/fault_transport.h"

namespace compreg::net::real {

FaultyTransport::FaultyTransport(Transport& inner, NetFaultPlan plan,
                                 std::uint64_t seed,
                                 std::chrono::steady_clock::time_point epoch)
    : inner_(inner), plan_(std::move(plan)), rng_(seed), epoch_(epoch) {}

bool FaultyTransport::partition_blocks(int a, int b) const {
  // No clock read per frame when the plan has no partition.
  if (plan_.partitions.empty()) return false;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  return plan_.partitioned(ms < 0 ? 0 : static_cast<std::uint64_t>(ms), a, b);
}

void FaultyTransport::send(int dst, const WireMsg& msg) {
  TransportStats& st = inner_.stats();
  // Drawn before the partition check, so the fate sequence is SimNet's
  // for the same (plan, seed).
  const MessageFate fate = plan_.fate(rng_);
  if (!fate.lost && partition_blocks(inner_.self(), dst)) {
    ++st.dropped_partition;
    return;
  }
  st.count(fate);
  if (fate.lost) return;
  const auto hold = [&](std::uint64_t ms) {
    held_.push(Held{std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ms),
                    next_seq_++, dst, msg});
  };
  if (fate.hold() == 0) {
    inner_.send(dst, msg);
  } else {
    hold(fate.hold());
  }
  if (fate.dup_gap != 0) hold(fate.hold() + fate.dup_gap);
}

void FaultyTransport::release_due() {
  const auto now = std::chrono::steady_clock::now();
  while (!held_.empty() && held_.top().release <= now) {
    const Held h = held_.top();
    held_.pop();
    // Release-time partition check: the window may have opened while
    // the message was held.
    if (partition_blocks(inner_.self(), h.dst)) {
      ++inner_.stats().dropped_partition;
      continue;
    }
    inner_.send(h.dst, h.msg);
  }
}

std::optional<Delivery> FaultyTransport::poll(const Deadline& deadline) {
  while (true) {
    release_due();
    Deadline step = deadline;
    if (!held_.empty()) {
      step = Deadline::earlier(step, Deadline::at(held_.top().release));
    }
    std::optional<Delivery> d = inner_.poll(step);
    if (d) {
      // Receive-side partition enforcement: frames already in flight
      // (or sent by an endpoint whose own window bookkeeping lags by a
      // scheduling quantum) are eaten at the boundary too.
      if (partition_blocks(inner_.self(), d->src)) {
        ++inner_.stats().dropped_partition;
        continue;
      }
      return d;
    }
    // Empty: the deadline passed or a wake came. Go round only to
    // release a held frame that fell due.
    if (held_.empty() ||
        held_.top().release > std::chrono::steady_clock::now()) {
      return std::nullopt;
    }
  }
}

}  // namespace compreg::net::real
