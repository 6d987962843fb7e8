#include "server/server.h"

#include <chrono>
#include <thread>
#include <vector>

#include "net/real/client.h"
#include "net/real/fault_transport.h"
#include "util/assert.h"

namespace compreg::server {
namespace {

using compreg::net::Deadline;
using compreg::net::WriteResult;
using compreg::net::real::FaultyTransport;
using compreg::net::real::RealAbdClient;
using compreg::net::real::RealClientConfig;
using compreg::net::real::RealClientStats;
using compreg::net::real::SocketTransport;
using compreg::net::real::TransportConfig;
using compreg::telemetry::Counter;
using compreg::telemetry::Histo;
using compreg::telemetry::Recorder;

using SteadyPoint = std::chrono::steady_clock::time_point;

SteadyPoint epoch_point(std::int64_t ns) {
  return SteadyPoint(std::chrono::duration_cast<SteadyPoint::duration>(
      std::chrono::nanoseconds(ns)));
}

std::uint64_t us_since(SteadyPoint t0) {
  const auto d = std::chrono::steady_clock::now() - t0;
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d);
  return us.count() < 0 ? 0 : static_cast<std::uint64_t>(us.count());
}

// One worker's connection to the fleet: its own socket endpoint `node`,
// the configured client-side fault plan over it, and an ABD client over
// both.
struct FleetLink {
  SocketTransport sock;
  FaultyTransport net;
  RealAbdClient client;

  FleetLink(const ServerConfig& cfg, int node, std::uint64_t salt)
      : sock(TransportConfig{cfg.kind, node, cfg.replicas(), cfg.fleet_dir,
                             static_cast<std::uint16_t>(cfg.fleet_base_port)}),
        net(sock, cfg.plan, cfg.seed ^ salt, epoch_point(cfg.epoch_ns)),
        client(net, client_config(cfg), epoch_point(cfg.epoch_ns)) {}

  static RealClientConfig client_config(const ServerConfig& cfg) {
    RealClientConfig c;
    c.f = cfg.f;
    c.attempt_timeout = std::chrono::milliseconds(cfg.attempt_ms);
    c.max_attempts = cfg.max_attempts;
    c.jitter_seed = cfg.seed ^ 0x5eb7e17ull;
    return c;
  }
};

}  // namespace

// The front-end listens as node 0 of its own namespace, alone.
Server::Server(const ServerConfig& cfg)
    : cfg_(cfg),
      admission_(cfg.max_inflight),
      front_(TransportConfig{
          cfg.kind, 0, 1, cfg.front_dir,
          static_cast<std::uint16_t>(cfg.front_base_port)}) {}

void Server::stop() {
  // Relaxed: the flag is a level-triggered latch, and the wake makes the
  // front-end look at it; no other state rides on its ordering.
  stop_.store(true, std::memory_order_relaxed);
  front_.wake();
}

void Server::complete(const Completion& c) {
  if (done_.put(c)) front_.wake();
}

void Server::write_worker_main() {
  FleetLink link(cfg_, cfg_.replicas(), 0x77121ull);
  RealAbdClient& client = link.client;
  Recorder* rec = registry_.attach();
  COMPREG_CHECK(rec != nullptr, "telemetry registry full");
  RealClientStats last = client.stats();

  while (true) {
    const std::vector<Admitted> batch = writes_.take();
    if (batch.empty()) break;  // stopped and drained
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Admitted& op = batch[i];
      rec->count(Counter::kWritesDequeued);
      rec->record(Histo::kQueueDepth, batch.size() - 1 - i);
      // The client seeds its sequence from the fleet (net/abd_core.h).
      // ts 0: the seeding read failed and nothing was sent.
      const WriteResult w = client.write_next(op.req.val);
      const RealClientStats& s = client.stats();
      rec->count(Counter::kRetries, s.retries - last.retries);
      rec->count(Counter::kQuorumRounds, s.phases - last.phases);
      last = s;
      complete(Completion{op, w.ok ? Status::kOk : Status::kUnavailable,
                          w.ts, op.req.val});
    }
  }
}

void Server::read_worker_main() {
  FleetLink link(cfg_, cfg_.replicas() + 1, 0x4ead2ull);
  RealAbdClient& client = link.client;
  Recorder* rec = registry_.attach();
  COMPREG_CHECK(rec != nullptr, "telemetry registry full");
  RealClientStats last = client.stats();

  while (true) {
    const std::vector<Admitted> batch = reads_.take();
    if (batch.empty()) break;  // stopped and drained

    // One shared quorum collect for the whole batch. It starts after
    // every member's enqueue, so each member's answer is at least as
    // fresh as a collect it could have started itself.
    const auto r = client.try_read();
    const RealClientStats& s = client.stats();
    rec->count(Counter::kRetries, s.retries - last.retries);
    rec->count(Counter::kQuorumRounds, s.phases - last.phases);
    last = s;
    rec->count(Counter::kBatchRounds);
    rec->count(Counter::kBatchedReads, batch.size());
    rec->record(Histo::kBatchOccupancy, batch.size());

    const Status status = r.ok ? Status::kOk : Status::kUnavailable;
    for (const Admitted& op : batch) {
      complete(Completion{op, status, r.ts, r.val});
    }
  }
}

void Server::run() {
  Recorder* rec = registry_.attach();
  COMPREG_CHECK(rec != nullptr, "telemetry registry full");

  std::thread writer([this] { write_worker_main(); });
  std::thread reader([this] { read_worker_main(); });

  bool draining = false;
  while (true) {
    // Relaxed: see stop(); the wake, not the order, delivers the latch.
    draining = draining || stop_.load(std::memory_order_relaxed);
    if (draining && admission_.in_flight() == 0) break;

    // Sleeps until a frame arrives or a wake(): a completion landed in
    // an empty handoff, or stop(). A wake sent since the checks above is
    // not lost: the eventfd stays readable until this poll drains it.
    const auto d = front_.poll(Deadline::never());
    Request req;
    if (d && decode_request(d->msg, req)) {
      rec->count(Counter::kOpsReceived);
      if (draining || !admission_.try_acquire()) {
        // Typed backpressure: reject in one round trip, never queue
        // unboundedly (and accept nothing new while draining).
        rec->count(Counter::kBusy);
        front_.send(static_cast<int>(req.client),
                    make_response(0, req, Status::kBusy, 0, 0));
      } else if (req.is_write) {
        writes_.put(Admitted{req, std::chrono::steady_clock::now()});
        rec->count(Counter::kWritesEnqueued);
      } else {
        reads_.put(Admitted{req, std::chrono::steady_clock::now()});
      }
    }

    for (const Completion& c : done_.try_take()) {
      const Request& r = c.op.req;
      front_.send(static_cast<int>(r.client),
                  make_response(0, r, c.status, c.ts, c.val));
      admission_.release();
      const std::uint64_t us = us_since(c.op.t0);
      if (r.is_write) {
        rec->count(c.status == Status::kOk ? Counter::kWritesOk
                                           : Counter::kUnavailable);
        rec->record(Histo::kWriteLatencyUs, us);
      } else {
        rec->count(c.status == Status::kOk ? Counter::kReadsOk
                                           : Counter::kUnavailable);
        rec->record(Histo::kReadLatencyUs, us);
      }
    }
  }

  writes_.stop();
  reads_.stop();
  writer.join();
  reader.join();

  // Every response is queued on its connection by now. Hand the bytes to
  // the kernel before returning, bounded so that a client that stopped
  // reading cannot hold shutdown.
  front_.flush(std::chrono::milliseconds(100));
}

Server::Conservation Server::conservation() const {
  const telemetry::Snapshot snap = registry_.snapshot();
  Conservation c;
  c.received = snap.counter(Counter::kOpsReceived);
  c.writes_ok = snap.counter(Counter::kWritesOk);
  c.reads_ok = snap.counter(Counter::kReadsOk);
  c.unavailable = snap.counter(Counter::kUnavailable);
  c.busy = snap.counter(Counter::kBusy);
  c.ok = c.received == c.writes_ok + c.reads_ok + c.unavailable + c.busy;
  return c;
}

}  // namespace compreg::server
