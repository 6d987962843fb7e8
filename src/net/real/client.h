// Socket ABD client: the AbdClient of net/abd_core.h over a Transport.
// Its link sends one WireMsg per replica and drains the transport until
// the phase has its quorum or the wait's deadline passes. Budgets are
// milliseconds: RealClientConfig::attempt_timeout per attempt, backoff
// windows from kBackoffBaseMs up to kBackoffCapMs plus jitter.
//
// The caller owns the single writer's timestamp sequence
// (next_write_ts()). The ack hook reports every STORE ack (replica id,
// acked ts, receive time) for the harness's durability auditor.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "net/abd_core.h"
#include "net/real/transport.h"

namespace compreg::net::real {

inline constexpr unsigned kBackoffBaseMs = 2;  // doubles per attempt
inline constexpr unsigned kBackoffCapMs = 64;  // bound on one window

struct RealClientConfig {
  int f = 1;
  std::chrono::milliseconds attempt_timeout{100};
  unsigned max_attempts = 8;  // per quorum phase (first try included)
  std::uint64_t jitter_seed = 0x9e7c0ffeeull;
};

using RealClientStats = ClientStats;

// (replica id, acked timestamp, ns since fleet epoch the ack arrived)
using AckHook =
    std::function<void(int replica, std::uint64_t ts, std::int64_t t_ns)>;

struct RealReadResult {
  bool ok = false;  // false = Unavailable (explicit degradation)
  std::uint64_t ts = 0;
  std::uint64_t val = 0;
};

class RealAbdClient {
 public:
  // `net` must outlive the client. `epoch` is the fleet time origin used
  // for ack-hook timestamps.
  RealAbdClient(Transport& net, const RealClientConfig& cfg,
                std::chrono::steady_clock::time_point epoch);

  RealAbdClient(const RealAbdClient&) = delete;
  RealAbdClient& operator=(const RealAbdClient&) = delete;

  // SWMR write with a caller-chosen timestamp (use next_write_ts() for
  // the canonical sequence). Returns false on Unavailable; the write may
  // still take effect (record it pending).
  bool try_write(std::uint64_t ts, std::uint64_t val) {
    return client_.write(ts, val);
  }

  // ABD read; result.ok == false means Unavailable.
  RealReadResult try_read() {
    const std::optional<Stamped<std::uint64_t>> got = client_.read();
    return got ? RealReadResult{true, got->ts, got->val} : RealReadResult{};
  }

  std::uint64_t next_write_ts() { return ++write_ts_; }

  void set_ack_hook(AckHook hook) { ack_hook_ = std::move(hook); }
  const RealClientStats& stats() const { return stats_; }

 private:
  struct SocketLink {
    RealAbdClient* owner;
    MsgType want = MsgType::kQueryReply;  // the current phase's replies

    void broadcast(QuorumCollector<std::uint64_t>& phase,
                   const AbdMsg<std::uint64_t>& request);
    bool await(QuorumCollector<std::uint64_t>& phase, std::uint64_t ms);
  };

  Transport& net_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t write_ts_ = 0;
  RealClientStats stats_;
  AckHook ack_hook_;
  AbdClient<std::uint64_t, SocketLink> client_;
};

}  // namespace compreg::net::real
