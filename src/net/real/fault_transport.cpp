#include "net/real/fault_transport.h"

#include <algorithm>

namespace compreg::net::real {

FaultyTransport::FaultyTransport(Transport& inner, NetFaultPlan plan,
                                 std::uint64_t seed,
                                 std::chrono::steady_clock::time_point epoch)
    : inner_(inner), plan_(std::move(plan)), rng_(seed), epoch_(epoch) {}

std::uint64_t FaultyTransport::now_ms() const {
  const auto d = std::chrono::steady_clock::now() - epoch_;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(d);
  return ms.count() < 0 ? 0 : static_cast<std::uint64_t>(ms.count());
}

bool FaultyTransport::partition_blocks(int a, int b) const {
  if (plan_.partitions.empty()) return false;
  const std::uint64_t now = now_ms();
  for (const PartitionSpec& p : plan_.partitions) {
    if (now < p.at_step || now >= p.at_step + p.duration) continue;
    const bool a_in = std::binary_search(p.group.begin(), p.group.end(), a);
    const bool b_in = std::binary_search(p.group.begin(), p.group.end(), b);
    if (a_in != b_in) return true;
  }
  return false;
}

void FaultyTransport::send(int dst, const WireMsg& msg) {
  TransportStats& st = inner_.stats();
  if (partition_blocks(inner_.self(), dst)) {
    ++st.dropped_partition;
    return;
  }
  if (plan_.drop_permille != 0 && rng_.chance(plan_.drop_permille, 1000)) {
    ++st.dropped_loss;
    return;
  }
  std::uint64_t hold_ms = 0;
  if (plan_.delay.permille != 0 && rng_.chance(plan_.delay.permille, 1000)) {
    hold_ms = 1 + rng_.below(plan_.delay.max_steps);
    ++st.delayed;
  } else if (plan_.reorder_permille != 0 &&
             rng_.chance(plan_.reorder_permille, 1000)) {
    hold_ms = 1 + rng_.below(3);
    ++st.reordered;
  }
  if (hold_ms != 0) {
    held_.push(Held{std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(hold_ms),
                    next_seq_++, dst, msg});
    return;
  }
  inner_.send(dst, msg);
  if (plan_.dup_permille != 0 && rng_.chance(plan_.dup_permille, 1000)) {
    ++st.duplicated;
    inner_.send(dst, msg);
  }
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
