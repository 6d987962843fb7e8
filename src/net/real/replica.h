// One socket ABD replica: a process-level event loop over the real
// transport, driving the replica half of net/abd_core.h.
//
// The core's AbdReplica makes every protocol decision: adopt-if-newer,
// persist-before-ack, the serving gate and the catch-up quorum. This
// file owns the process around it. The replica's stable storage is a
// FileDurable, which a kill-9 cannot tear. A fresh boot and a restart
// are told apart by FileDurable::existed(): a replica that never
// persisted anything never acknowledged anything, so it starts blank
// and serves at once; a present durable file makes it rejoin, tagged
// with this process's incarnation. Catch-up requests are re-broadcast
// every 50 ms (kSyncRetry) until a quorum answers, since peers may
// themselves still be starting. Between those, and always once serving,
// the loop sleeps in the transport until a frame or SIGTERM wakes it.
//
// The replica appends machine-parseable lines ("start ...",
// "serving ...") to <data_dir>/audit.log; the harness's durability
// auditor joins them against client-side ack records to detect
// ack-before-persist violations across real kill-9 cycles.
//
// Termination: SIGTERM wakes the loop for a clean exit; SIGKILL is the
// chaos path (the supervisor's job). The supervisor arms
// PR_SET_PDEATHSIG so orphaned replicas die with the harness.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "net/net_plan.h"
#include "net/real/transport.h"

namespace compreg::net::real {

struct ReplicaConfig {
  TransportConfig transport;  // transport.self = this replica's node id
  int f = 1;
  std::string data_dir;  // durable records + audit log
  NetFaultPlan plan;     // socket-level faults; crash/recover specs are
                         // ignored here (real crashes are SIGKILLs)
  std::uint64_t seed = 1;
  std::chrono::steady_clock::time_point epoch{};  // fleet time origin
};

// Runs the replica event loop until SIGTERM. Returns a process exit
// code (0 on clean shutdown).
int run_replica(const ReplicaConfig& cfg);

// Appends one line to the shared audit log (O_APPEND, single write).
// Used by run_replica; exposed so tests can seed and parse logs.
void audit_append(const std::string& path, const std::string& line);

}  // namespace compreg::net::real
