// SimNet: a deterministic simulated asynchronous message-passing
// network, the transport under the replicated register substrate.
//
// Nodes are integers: ids [0, replicas) are replica servers (the only
// crash/partition targets a NetFaultPlan can name by default — clients
// can be partitioned too if a plan lists their ids), ids from
// new_client_node() are client endpoints. A message is an opaque
// deliver-closure plus (src, dst) routing metadata; send() enqueues it
// with a delivery time, poll() advances the network clock one step and
// runs every message whose time has come. Both send() and poll() are
// sched::point-labeled schedule points, so under the deterministic
// simulator the schedule policy interleaves network activity with
// shared-memory steps and a (policy seed, net seed, plan) triple
// replays an execution exactly. Outside the simulator the points are
// no-ops and SimNet is an ordinary single-threaded event queue.
//
// Fault injection (NetFaultPlan) happens inside the transport: drop and
// dup/delay/reorder decisions are drawn from the net's own RNG at
// send(); partition, replica-crash and recovery-downtime checks happen
// at delivery time. Crash–recovery cycles (`recover` specs) take a
// replica down after a message budget and bring it back after a
// downtime window; the rejoin fires the registered recover hooks (the
// replicated registers' recovery protocols) inside the triggering
// poll's step. Replica handlers run inline during poll() — sends
// performed inside a delivery (replies) are enqueued without taking
// another schedule point, so one poll is one atomic network step to
// the scheduler.
//
// SIMULATOR-ONLY for concurrent use (like theory::TheoryCell): the
// queue and the replica state behind the closures are plain fields,
// safe exactly because the simulator serializes steps.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "net/abd_core.h"
#include "net/durable_state.h"
#include "net/net_plan.h"
#include "sched/access.h"
#include "util/rng.h"

namespace compreg::net {

// Transport- and client-level counters for one SimNet lifetime. The
// client fields are filled in by the replicated registers' clients, so
// every fabric-wide metric lives in one place.
struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t polls = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_crash = 0;
  std::uint64_t dropped_down = 0;  // eaten during a recovery downtime
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
  std::uint64_t replica_recoveries = 0;  // completed rejoin events
  // Rejoin resynchronization traffic (queries + replies), filled in by
  // the replicated registers like `client` below.
  std::uint64_t catchup_msgs = 0;
  ClientStats client;  // every client of every register, summed
};

class SimNet {
 public:
  SimNet(int replicas, NetFaultPlan plan, std::uint64_t seed);

  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  int replicas() const { return replicas_; }

  // Allocates a fresh client endpoint id (>= replicas()).
  int new_client_node() { return next_client_++; }

  // Enqueues a message from src to dst. Takes one labeled schedule
  // point, unless called from inside a delivery closure (a reply),
  // which rides in its triggering poll's step. The loss/dup/delay/
  // reorder faults are decided here, deterministically.
  void send(int src, int dst, std::function<void()> deliver);

  // One network step: takes one labeled schedule point, advances the
  // network clock, and runs every pending message whose delivery time
  // has arrived (minus those a partition or replica crash eats).
  void poll();

  // Network steps taken so far (the clock partitions are scheduled on).
  std::uint64_t now() const { return now_; }

  // True once `node` hit its NetFaultPlan crash budget (crash-stop:
  // permanent). A node inside a recovery downtime is replica_down(),
  // not crashed.
  bool replica_crashed(int node) const;

  // True while `node` is inside a crash–recovery downtime window.
  bool replica_down(int node) const;

  // Messages a replica node has processed (its crash budget meter).
  std::uint64_t processed(int node) const;

  // Messages still queued for future delivery steps.
  std::size_t pending() const { return queue_.size(); }

  // Rejoin hooks: called with the rejoining node id immediately after a
  // recovery downtime expires, before that poll's deliveries — the slot
  // where a replicated register runs its recovery protocol. Hook sends
  // ride the triggering poll's network step (no extra schedule points).
  // Returns a token for remove_recover_hook (register destructors must
  // deregister; the fabric can outlive any one register).
  std::uint64_t add_recover_hook(std::function<void(int)> hook);
  void remove_recover_hook(std::uint64_t token);

  // The fabric-wide stable-storage device and durability auditor.
  DurableMedium& durable() { return durable_; }
  const DurableMedium& durable() const { return durable_; }

  const NetStats& stats() const { return stats_; }
  NetStats& stats() { return stats_; }

  const NetFaultPlan& plan() const { return plan_; }

 private:
  struct Envelope {
    std::uint64_t at = 0;   // earliest delivery step
    std::uint64_t seq = 0;  // FIFO tie-break
    int src = 0;
    int dst = 0;
    std::function<void()> deliver;
  };
  struct EnvelopeLater {
    bool operator()(const Envelope& a, const Envelope& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  // Per-replica crash–recovery state machine: cycles consumed in plan
  // order; `since_up` meters the current incarnation against the next
  // cycle's message budget.
  struct RecoveryState {
    std::vector<RecoverSpec> cycles;
    std::size_t next = 0;
    std::uint64_t since_up = 0;
    bool down = false;
    std::uint64_t up_at = 0;  // network step the downtime expires
  };

  bool partition_blocks(int src, int dst) const;
  void deliver_one(Envelope env);
  void rejoin_due();

  const int replicas_;
  NetFaultPlan plan_;
  Rng rng_;
  int next_client_;
  std::uint64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool in_delivery_ = false;
  std::priority_queue<Envelope, std::vector<Envelope>, EnvelopeLater> queue_;
  std::vector<std::uint64_t> processed_;            // per replica node
  std::vector<std::optional<std::uint64_t>> crash_limit_;  // per replica
  std::vector<RecoveryState> recovery_;             // per replica node
  std::vector<std::pair<std::uint64_t, std::function<void(int)>>> hooks_;
  std::uint64_t next_hook_ = 1;
  DurableMedium durable_;
  NetStats stats_;
  sched::AccessLabel send_access_;
  sched::AccessLabel poll_access_;
};

}  // namespace compreg::net
