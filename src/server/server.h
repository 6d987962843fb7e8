// The standing register service: many clients, one ABD writer funnel.
//
// Three threads, each owning its own single-threaded SocketTransport,
// joined by three Batcher handoffs (server/read_batch.h):
//
//   front-end (the thread calling run()): drives the client-facing
//     transport (node 0 of its own namespace; clients are anonymous
//     peers identified by their frame src), decodes requests, applies
//     admission control (bounded in-flight, Busy beyond the bound),
//     routes writes to the write worker and reads to the read worker,
//     and sends every completed response back on the client's
//     connection. It sleeps in epoll until a frame arrives or a wake():
//     a worker's completion landing in an empty handoff, or stop(). No
//     timer paces it;
//
//   write worker: owns a RealAbdClient against the 2f+1 fleet and is
//     the SINGLE ABD WRITER — every client write is assigned the next
//     timestamp of one monotone sequence and performed one at a time,
//     in arrival order. Timestamp order therefore IS the write
//     serialization order, which is what the funneled atomicity checker
//     (lin/register_checker.h) verifies against client-observed
//     intervals. The sequence and its seeding belong to the ABD core
//     (AbdClient::write_next in net/abd_core.h): the client seeds it
//     from a fleet read quorum, so a server fronting a non-empty fleet
//     continues, not restarts, the sequence. Until a seeding read
//     succeeds, each write retries it once and answers Unavailable with
//     ts 0 (never sent, no effect) if it fails. The worker keeps only
//     the batch handoff and its telemetry;
//
//   read worker: owns a second RealAbdClient and serves reads in
//     batches — it swaps out the entire pending-read queue and answers
//     the whole batch from ONE shared quorum collect that starts after
//     every member arrived (see server/read_batch.h for the staleness
//     argument).
//
// Degradation is always explicit and bounded: a spent fleet retry
// budget surfaces as kUnavailableResp (writes still carry their
// assigned timestamp — the value may yet take effect, clients record it
// pending), and admission overflow surfaces as kBusyResp before any
// fleet traffic. Nothing queues unboundedly and nothing blocks forever.
//
// Every thread carries an always-on telemetry recorder
// (src/telemetry/); shutdown drains in-flight ops to zero before
// stopping the workers, so the final snapshot satisfies conservation:
// ops_received == writes_ok + reads_ok + unavailable + busy. It then
// flushes every connection's outbox, bounded, before returning.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/net_plan.h"
#include "net/real/transport.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/read_batch.h"
#include "telemetry/telemetry.h"

namespace compreg::server {

struct ServerConfig {
  net::real::TransportKind kind = net::real::TransportKind::kUds;
  int f = 1;

  // Fleet-facing namespace (must match the replicas').
  std::string fleet_dir;
  int fleet_base_port = 47600;

  // Client-facing namespace (the server listens as node 0 in it).
  std::string front_dir;
  int front_base_port = 47800;

  std::uint32_t max_inflight = 128;

  // Fleet-side retry budget (RealAbdClient).
  unsigned attempt_ms = 100;
  unsigned max_attempts = 8;

  // Client-side fault plan against the fleet (chaos runs); the
  // default plan injects nothing.
  net::NetFaultPlan plan;
  std::uint64_t seed = 1;
  std::int64_t epoch_ns = 0;  // shared fleet epoch

  int replicas() const { return 2 * f + 1; }
};

class Server {
 public:
  // Binds the client-facing socket.
  explicit Server(const ServerConfig& cfg);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Serves until stop(), then drains every admitted op, stops the
  // workers, flushes the responses, and returns. The calling thread is
  // the front-end.
  void run();

  // Ends run(). Safe from any thread and from a signal handler (an
  // atomic store and an eventfd write); a stop() before run() makes
  // run() return at once.
  void stop();

  telemetry::Registry& registry() { return registry_; }

  struct Conservation {
    bool ok = false;
    std::uint64_t received = 0;
    std::uint64_t writes_ok = 0;
    std::uint64_t reads_ok = 0;
    std::uint64_t unavailable = 0;
    std::uint64_t busy = 0;
  };
  // Valid after run() returned (workers quiesced, totals stable).
  Conservation conservation() const;

 private:
  struct Completion {
    Admitted op;
    Status status = Status::kOk;
    std::uint64_t ts = 0;
    std::uint64_t val = 0;
  };

  void write_worker_main();
  void read_worker_main();

  void complete(const Completion& c);

  ServerConfig cfg_;
  telemetry::Registry registry_;
  AdmissionGate admission_;
  net::real::SocketTransport front_;
  std::atomic<bool> stop_{false};
  Batcher<Admitted> reads_;
  Batcher<Admitted> writes_;
  Batcher<Completion> done_;
};

}  // namespace compreg::server
