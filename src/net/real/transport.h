// Transport: the socket layer under the ABD client and replica.
//
// The protocol needs two things from a real network: fire-and-forget
// `send` and a deadline-bounded `poll` that surfaces whatever arrived.
// Above this interface everything is net/abd_core.h: the replica's
// dispatch (AbdReplica::on_message), quorum collection, the read rule,
// the rejoin catch-up and the client's retry loop. The socket client's
// link (net/real/client.h) and the replica loop (net/real/replica.h)
// only turn those decisions into frames. The simulator does not
// implement this interface: its link and its replicas send SimNet
// delivery closures instead, and its schedule points stop at that line.
// The replica dispatch is shared, so the simulator's certificates cover
// it; the sockets are covered by chaos runs (see docs/fault_model.md,
// "Real transport").
//
// SocketTransport is the concrete backend: nonblocking stream sockets
// (Unix-domain by default, TCP loopback optionally), one epoll set per
// endpoint, length-prefixed frames (net/real/wire.h), lazy dialing, and
// drop-on-unreachable semantics — a message to a dead or unreachable
// peer is counted and discarded, never an error, exactly the asynchronous
// fair-lossy network the ABD protocol is designed for. Each endpoint
// (one replica process, or one client thread) owns its own
// SocketTransport; instances are single-threaded and never shared, with
// one exception: wake() is safe from any thread and from a signal
// handler.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/backoff.h"
#include "net/net_plan.h"
#include "net/real/wire.h"

namespace compreg::net::real {

struct Delivery {
  int src = -1;  // logical node id of the sender
  WireMsg msg;
};

// Socket-level counters, one set per endpoint. The FaultCounts fields
// are filled in by FaultyTransport (the fault layer sits above the
// socket, below the protocol).
struct TransportStats : FaultCounts {
  std::uint64_t sent = 0;       // frames handed to the kernel (or queued)
  std::uint64_t delivered = 0;  // frames surfaced to the protocol
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t dropped_unreachable = 0;  // dead peer / failed connect
  std::uint64_t dropped_corrupt = 0;      // malformed frame -> conn closed
  std::uint64_t connects = 0;
  std::uint64_t accepts = 0;
  std::uint64_t resets = 0;  // connections lost mid-stream
};

class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  virtual int self() const = 0;

  // Fire-and-forget: queues the message toward `dst`, dialing if
  // needed. Unreachable peers are a counted drop, not an error.
  virtual void send(int dst, const WireMsg& msg) = 0;

  // Drives I/O until one message is available or the deadline passes.
  virtual std::optional<Delivery> poll(const Deadline& deadline) = 0;

  virtual TransportStats& stats() = 0;
};

enum class TransportKind : std::uint8_t { kUds = 0, kTcp = 1 };

struct TransportConfig {
  TransportKind kind = TransportKind::kUds;
  int self = 0;      // logical node id of this endpoint
  int replicas = 3;  // ids [0, replicas) listen; higher ids are clients
  std::string dir;   // UDS: directory holding replica-<id>.sock
  std::uint16_t base_port = 0;  // TCP: replica r listens on base_port + r
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(TransportConfig cfg);
  ~SocketTransport() override;

  int self() const override { return cfg_.self; }
  void send(int dst, const WireMsg& msg) override;
  std::optional<Delivery> poll(const Deadline& deadline) override;
  TransportStats& stats() override { return stats_; }

  // Makes the current or the next poll() return at once: with a
  // delivery if one is ready, else nullopt. The only call that is safe
  // from another thread or a signal handler (one eventfd write, which
  // preserves errno). Wakes do not queue: several before one poll()
  // end that one poll.
  void wake();

  // Drives I/O until every queued outbound byte has reached the kernel,
  // or `bound` passes. Frames that arrive meanwhile stay queued; a wake
  // is used up. True when everything was flushed.
  bool flush(std::chrono::milliseconds bound);

 private:
  struct Conn {
    int fd = -1;
    int peer = -1;           // learned from the first inbound frame
    bool connecting = false;  // nonblocking connect still in flight
    bool want_write = false;  // EPOLLOUT currently armed
    FrameReader reader;
    std::vector<unsigned char> outbox;
    std::size_t out_pos = 0;
  };

  int dial(int dst);  // returns fd or -1 (unreachable now)
  bool pump(int timeout_ms);  // one epoll round; true if it took a wake
  void flush_writes(int fd);
  void handle_readable(int fd);
  void handle_writable(int fd);
  void close_conn(int fd, bool reset);
  bool watch(int op, int fd, std::uint32_t events);  // epoll_ctl
  void update_epoll(int fd, Conn& conn);
  void drain_frames(int fd);

  TransportConfig cfg_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd in the epoll set; see wake()
  std::string listen_path_;  // UDS only: unlinked on destruction
  std::unordered_map<int, Conn> conns_;  // by fd
  std::unordered_map<int, int> peer_fd_;  // logical node id -> fd
  std::deque<Delivery> inbox_;
  TransportStats stats_;
};

}  // namespace compreg::net::real
