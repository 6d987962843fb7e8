// Socket ABD client: the client half of the protocol in net/abd_core.h
// over a Transport, with wall-clock deadlines in place of poll-count
// budgets.
//
// The core's QuorumCollector decides which replies count and the read
// rule decides what a read returns and whether it writes back. This
// file owns the timing. Each attempt of a quorum phase broadcasts to
// all 2f+1 replicas and waits for a quorum until the attempt deadline
// passes; failed attempts re-broadcast after a bounded exponential
// backoff window (net/backoff.h, in milliseconds), and the phase
// degrades to an explicit Unavailable once the attempt budget is spent.
// The op id stays fixed across the attempts of one phase, so straggler
// replies to an earlier broadcast still count, and the backoff window
// keeps polling so a late quorum short-circuits the wait. A read whose
// write-back goes Unavailable returns Unavailable: handing the value
// out without majority cover could expose a new-old inversion to a
// later reader.
//
// Writes are single-writer: the caller owns the timestamp sequence
// (next_write_ts()); an Unavailable write may still take effect later
// if its frames landed on a minority, which is why the harness records
// it as a *pending* operation for the linearizability checker.
//
// The ack hook reports every STORE ack (replica id, acked ts, receive
// time) so the harness's durability auditor can cross-check a killed
// replica's recovered state against what it acknowledged pre-kill.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "net/abd_core.h"
#include "net/backoff.h"
#include "net/real/transport.h"
#include "util/rng.h"

namespace compreg::net::real {

struct RealClientConfig {
  int f = 1;
  std::chrono::milliseconds attempt_timeout{100};
  unsigned max_attempts = 8;     // per quorum phase (first try included)
  unsigned backoff_base_ms = 2;  // doubles per failed attempt
  unsigned backoff_cap_ms = 64;
  std::uint64_t jitter_seed = 0x9e7c0ffeeull;
};

struct RealClientStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t retries = 0;           // re-broadcasts after a timeout
  std::uint64_t unavailable = 0;       // phases that exhausted the budget
  std::uint64_t writebacks = 0;
  std::uint64_t writeback_skips = 0;   // uniform-quorum fast path
};

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
  bool try_write(std::uint64_t ts, std::uint64_t val);

  // ABD read; result.ok == false means Unavailable.
  RealReadResult try_read();

  std::uint64_t next_write_ts() { return ++write_ts_; }

  void set_ack_hook(AckHook hook) { ack_hook_ = std::move(hook); }
  const RealClientStats& stats() const { return stats_; }

 private:
  // Broadcasts `req` (kStore or kQuery) and collects a quorum of its
  // replies into phase_. Returns false on Unavailable.
  bool quorum_phase(MsgType req, std::uint64_t ts, std::uint64_t val);

  Transport& net_;
  RealClientConfig cfg_;
  std::chrono::steady_clock::time_point epoch_;
  Rng jitter_;
  QuorumCollector<std::uint64_t> phase_;
  std::uint64_t write_ts_ = 0;
  RealClientStats stats_;
  AckHook ack_hook_;
};

}  // namespace compreg::net::real
