// Network fault plans: declarative message-level and replica-level
// failure schedules for the simulated network (SimNet) and sockets.
//
// Where src/fault/fault_plan.h describes *process* failures in terms of
// schedule points, a NetFaultPlan describes what the *network* does to
// messages and replicas, in terms of the network's own deterministic
// clock (one tick per delivery step / poll; 1 ms on sockets):
//
//   drop p‰          each message is lost with probability p/1000;
//   delay p‰ + m     each message is delayed by 1..m extra network
//                    steps with probability p/1000;
//   dup p‰           each message is delivered twice, the copy 1..2
//                    steps later, with probability p/1000 (protocol
//                    handlers must be idempotent);
//   reorder p‰       each message is pushed 1..3 more steps behind
//                    later traffic with probability p/1000;
//   partition s+l @ G  during network steps [s, s+l), messages between
//                    the node group G and everything outside it are
//                    dropped; messages inside G (or entirely outside)
//                    still flow — a classic network partition that
//                    heals after l steps (l huge = permanent);
//   crash n @ m      replica node n processes exactly m messages and
//                    then crash-stops: every later delivery to it is
//                    dropped (m = 0: dead from the start).
//   recover n @ m + d  one crash–recovery cycle: replica node n
//                    processes m messages (counted since its last
//                    (re)start), crashes, stays down for d network
//                    steps — deliveries to it are eaten meanwhile —
//                    then rejoins and resumes receiving. Repeated
//                    specs for the same node queue up as successive
//                    cycles, in plan order. Unlike `crash`, the node's
//                    volatile state is what its protocol makes of it:
//                    the replicated register reloads durable state and
//                    resynchronizes on the SimNet rejoin hook.
//
// The first four are one rule, fate(), that both networks draw from
// their own seeded RNG on every send, so (net seed, plan, schedule)
// replays a scenario exactly, on either network.
//
// Text grammar (one spec per element, comma separated; repeating a
// scalar spec kind — drop/delay/dup/reorder — is an error, since a
// silently-overriding duplicate almost always means a typo'd plan):
//   drop:<permille> | delay:<permille>+<maxsteps> | dup:<permille>
//   | reorder:<permille> | partition:<step>+<len>@<node>[.<node>]*
//   | crash:<node>@<msgs> | recover:<node>@<msgs>+<downsteps>
// e.g. "drop:100,delay:200+6,partition:40+200@0.1,crash:2@25,
// recover:0@12+40". parse() and to_string() round-trip. The
// error-reporting overload names the offending spec and what was
// expected of it; the plain overload just returns nullopt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace compreg::net {

// Largest node id a plan may name. Rejoin bookkeeping (sync masks) and
// the partition group representation are 64-bit, and no configuration
// in this repo approaches the bound; ids past it are typos.
inline constexpr int kMaxPlanNode = 63;

struct DelaySpec {
  unsigned permille = 0;
  std::uint64_t max_steps = 0;  // extra delay drawn uniform in [1, max]

  bool operator==(const DelaySpec&) const = default;
};

struct PartitionSpec {
  std::uint64_t at_step = 0;   // first network step of the partition
  std::uint64_t duration = 0;  // steps until it heals
  std::vector<int> group;      // isolated node group (sorted, unique)

  bool operator==(const PartitionSpec&) const = default;
};

struct ReplicaCrashSpec {
  int node = 0;
  std::uint64_t after_msgs = 0;  // messages processed before the crash

  bool operator==(const ReplicaCrashSpec&) const = default;
};

struct RecoverSpec {
  int node = 0;
  std::uint64_t after_msgs = 0;  // msgs since last (re)start, then crash
  std::uint64_t downtime = 0;    // network steps down before the rejoin
                                 // (SimNet clamps 0 to 1)

  bool operator==(const RecoverSpec&) const = default;
};

// One message's fate, in the reader's unit (SimNet steps, socket ms): a
// message not lost goes out hold() units late, a copy dup_gap after it.
struct MessageFate {
  bool lost = false;
  std::uint64_t delay = 0;    // 1..m when `delay` fired, else 0
  std::uint64_t reorder = 0;  // 1..3 when `reorder` fired, else 0
  std::uint64_t dup_gap = 0;  // 1..2 when `dup` fired, else 0

  std::uint64_t hold() const { return delay + reorder; }
};

// The fault counters of either network (NetStats, TransportStats).
struct FaultCounts {
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;

  // Partition drops are counted where the partition is checked.
  void count(const MessageFate& fate) {
    dropped_loss += fate.lost ? 1 : 0;
    delayed += fate.delay != 0 ? 1 : 0;
    reordered += fate.reorder != 0 ? 1 : 0;
    duplicated += fate.dup_gap != 0 ? 1 : 0;
  }
};

struct NetFaultPlan {
  unsigned drop_permille = 0;
  DelaySpec delay;
  unsigned dup_permille = 0;
  unsigned reorder_permille = 0;
  std::vector<PartitionSpec> partitions;
  std::vector<ReplicaCrashSpec> crashes;
  std::vector<RecoverSpec> recoveries;

  bool operator==(const NetFaultPlan&) const = default;

  bool empty() const {
    return drop_permille == 0 && delay.permille == 0 && dup_permille == 0 &&
           reorder_permille == 0 && partitions.empty() && crashes.empty() &&
           recoveries.empty();
  }

  // Draws loss (a lost message draws no more), then delay, reorder and
  // dup; a kind whose permille is 0 makes no draw.
  MessageFate fate(Rng& rng) const;

  // Whether a partition window open at `step` puts a and b on opposite
  // sides of its group. The one partition rule of both SimNet (network
  // steps) and FaultyTransport (milliseconds since the fleet epoch).
  bool partitioned(std::uint64_t step, int a, int b) const;

  std::string to_string() const;
  static std::optional<NetFaultPlan> parse(const std::string& text);
  // On failure, *error (if non-null) names the offending spec and the
  // expected shape, e.g. "recover: want '<node>@<msgs>+<downsteps>',
  // got '0@12'" or "partition: node id 64 out of range (0..63)".
  static std::optional<NetFaultPlan> parse(const std::string& text,
                                           std::string* error);

  // Random single-iteration chaos plan for `replicas` replica nodes:
  // message loss fixed at `loss_permille`, light random delay/dup/
  // reorder, one partition window with probability partition_permille/
  // 1000 (random nonempty proper subgroup of the replicas — minority
  // groups degrade latency, majority groups cost quorum), each replica
  // crash-stopping with probability crash_permille/1000 after a uniform
  // number of processed messages, and — the recovery dimension — each
  // replica entering 1–2 crash–downtime–rejoin cycles with probability
  // recover_permille/1000. Deterministic in `rng`.
  static NetFaultPlan random(Rng& rng, int replicas, std::uint64_t est_steps,
                             unsigned loss_permille,
                             unsigned partition_permille,
                             unsigned crash_permille,
                             unsigned recover_permille = 0);
};

}  // namespace compreg::net
