#include "net/real/client.h"

namespace compreg::net::real {

RealAbdClient::RealAbdClient(Transport& net, const RealClientConfig& cfg,
                             std::chrono::steady_clock::time_point epoch)
    : net_(net),
      cfg_(cfg),
      epoch_(epoch),
      jitter_(cfg.jitter_seed ^
              (static_cast<std::uint64_t>(net.self()) * 0x9e3779b9ull)),
      phase_(cfg.f) {}

bool RealAbdClient::quorum_phase(MsgType req, std::uint64_t ts,
                                 std::uint64_t val) {
  const std::uint64_t op = phase_.begin();
  const MsgType want =
      req == MsgType::kStore ? MsgType::kStoreAck : MsgType::kQueryReply;
  const auto self = static_cast<std::uint32_t>(net_.self());

  const auto drain_until = [&](const Deadline& deadline) {
    while (!phase_.quorum()) {
      std::optional<Delivery> d = net_.poll(deadline);
      if (!d) return false;
      const WireMsg& m = d->msg;
      if (m.type != want) continue;  // stray
      if (phase_.offer(d->src, m.op, m.ts, m.val) &&
          m.type == MsgType::kStoreAck && ack_hook_) {
        const auto t = std::chrono::steady_clock::now() - epoch_;
        ack_hook_(d->src, m.ts,
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t)
                      .count());
      }
    }
    return true;
  };

  for (unsigned attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    for (int r = 0; r < phase_.replicas(); ++r) {
      net_.send(r, WireMsg{req, self, op, ts, val});
    }
    if (drain_until(Deadline::after(cfg_.attempt_timeout))) return true;
    if (attempt + 1 == cfg_.max_attempts) break;
    // Bounded exponential backoff with deterministic jitter — the same
    // window arithmetic as the sim client, in milliseconds. The backoff
    // wait keeps polling, so a straggling quorum short-circuits it.
    const std::uint64_t window_ms = backoff_window(
        cfg_.backoff_base_ms, cfg_.backoff_cap_ms, attempt, jitter_);
    if (drain_until(Deadline::after(std::chrono::milliseconds(window_ms)))) {
      return true;
    }
  }
  ++stats_.unavailable;
  return false;
}

bool RealAbdClient::try_write(std::uint64_t ts, std::uint64_t val) {
  ++stats_.writes;
  return quorum_phase(MsgType::kStore, ts, val);
}

RealReadResult RealAbdClient::try_read() {
  ++stats_.reads;
  if (!quorum_phase(MsgType::kQuery, 0, 0)) return {};
  const ReadChoice<std::uint64_t> choice = phase_.read_choice();
  if (!choice.write_back) {
    ++stats_.writeback_skips;
  } else if (quorum_phase(MsgType::kStore, choice.ts, choice.val)) {
    ++stats_.writebacks;
  } else {
    // The value is not yet known to rest on a majority; returning it
    // could show a later reader an older value (new-old inversion).
    return {};
  }
  return RealReadResult{true, choice.ts, choice.val};
}

}  // namespace compreg::net::real
