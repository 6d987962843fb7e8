// FaultyTransport: NetFaultPlan enforcement at the real socket boundary.
//
// The simulated network injects faults inside its own event queue; the
// real path injects them in a decorator that sits between the protocol
// and the SocketTransport, so the same NetFaultPlan drives both
// transports. The mapping (documented in docs/fault_model.md):
//
//   drop / delay /      SimNet's per-message rule, NetFaultPlan::fate,
//   reorder / dup       drawn from this endpoint's own seeded RNG on
//                       every outgoing message, with 1 plan step = 1
//                       ms: the message is lost, or goes out hold() ms
//                       from now (0: at once; otherwise it is held
//                       locally), and a duplicate, if drawn, is held
//                       1..2 ms longer than the original.
//   partition s+l @ G   active during [s, s+l) *milliseconds since the
//                       fleet epoch*: messages crossing the boundary of
//                       node group G are dropped on send, on release
//                       from a hold, and on receive. Every fleet process is handed the same
//                       monotonic-clock epoch on its command line, so
//                       the windows line up fleet-wide without any
//                       coordination traffic.
//   crash / recover     NOT handled here: real replica crashes are real
//                       SIGKILLs delivered by the supervisor
//                       (net/real/supervisor.h), and recovery is a real
//                       process restart + the rejoin protocol.
//
// Held messages are released from poll(): the decorator shortens the
// caller's deadline to the next release time, so a blocked poll still
// releases traffic punctually. An inner poll that
// comes back empty (deadline passed, or a wake) ends the poll unless a
// held frame fell due, so a wake also ends a poll(Deadline::never()).
// The exception is a wake that lands in the round where a held frame
// falls due: that round uses it up. The fate is drawn before the
// send-side partition check, so one (plan, seed) gives the same fate
// sequence here as on SimNet — deterministic in the decision sequence,
// though wall-clock arrival order stays real.
#pragma once

#include <chrono>
#include <cstdint>
#include <queue>
#include <vector>

#include "net/net_plan.h"
#include "net/real/transport.h"
#include "util/rng.h"

namespace compreg::net::real {

class FaultyTransport final : public Transport {
 public:
  // `epoch` is the fleet-wide monotonic time origin for partition
  // windows (1 plan step = 1 ms from the epoch).
  FaultyTransport(Transport& inner, NetFaultPlan plan, std::uint64_t seed,
                  std::chrono::steady_clock::time_point epoch);

  int self() const override { return inner_.self(); }
  void send(int dst, const WireMsg& msg) override;
  std::optional<Delivery> poll(const Deadline& deadline) override;
  TransportStats& stats() override { return inner_.stats(); }

 private:
  struct Held {
    std::chrono::steady_clock::time_point release;
    std::uint64_t seq = 0;
    int dst = 0;
    WireMsg msg;
  };
  struct HeldLater {
    bool operator()(const Held& a, const Held& b) const {
      return a.release != b.release ? a.release > b.release : a.seq > b.seq;
    }
  };

  bool partition_blocks(int a, int b) const;
  void release_due();

  Transport& inner_;
  NetFaultPlan plan_;
  Rng rng_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Held, std::vector<Held>, HeldLater> held_;
};

}  // namespace compreg::net::real
