#include "net/real/replica.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "net/abd_core.h"
#include "net/real/durable_file.h"
#include "net/real/fault_transport.h"
#include "util/assert.h"

namespace compreg::net::real {
namespace {

constexpr std::chrono::milliseconds kSyncRetry{50};  // catch-up re-broadcast

volatile std::sig_atomic_t g_stop = 0;
// The socket the loop sleeps in, while it exists.
std::atomic<SocketTransport*> g_socket{nullptr};
static_assert(std::atomic<SocketTransport*>::is_always_lock_free,
              "the SIGTERM handler reads g_socket");

void on_term(int /*sig*/) {
  g_stop = 1;
  // Acquire: pairs with the release that published the socket.
  if (SocketTransport* s = g_socket.load(std::memory_order_acquire)) {
    s->wake();
  }
}

void install_sigterm() {
  struct sigaction sa = {};
  sa.sa_handler = &on_term;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
}

std::int64_t ns_since(std::chrono::steady_clock::time_point epoch) {
  const auto d = std::chrono::steady_clock::now() - epoch;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

}  // namespace

void audit_append(const std::string& path, const std::string& line) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  COMPREG_CHECK(fd >= 0, "open(%s) failed (errno %d)", path.c_str(), errno);
  std::string buf = line;
  buf.push_back('\n');
  // One write per line: O_APPEND makes concurrent appenders (several
  // replicas share one audit log) interleave at line granularity.
  ssize_t off = 0;
  const ssize_t len = static_cast<ssize_t>(buf.size());
  while (off < len) {
    const ssize_t n =
        ::write(fd, buf.data() + off, static_cast<std::size_t>(len - off));
    if (n < 0 && errno == EINTR) continue;
    COMPREG_CHECK(n > 0, "write(%s) failed (errno %d)", path.c_str(), errno);
    off += n;
  }
  ::close(fd);
}

int run_replica(const ReplicaConfig& cfg) {
  const int node = cfg.transport.self;
  // Built first: the core rejects a bad f or node id before anything
  // else runs.
  AbdReplica<std::uint64_t, FileDurable> replica(node, cfg.f, 0);
  COMPREG_CHECK(cfg.transport.replicas == 2 * cfg.f + 1,
                "replica fleet must be 2f+1");
  install_sigterm();

  FileDurable durable(cfg.data_dir + "/replica-" + std::to_string(node) +
                      ".dur");
  const std::string audit = cfg.data_dir + "/audit.log";

  SocketTransport socket(cfg.transport);
  FaultyTransport net(socket, cfg.plan, cfg.seed, cfg.epoch);
  // Release: a handler that sees the pointer sees a built socket.
  g_socket.store(&socket, std::memory_order_release);

  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "start node=%d durable_ts=%" PRIu64 " existed=%d t_ns=%"
                  PRId64,
                  node, durable.ts(), durable.existed() ? 1 : 0,
                  ns_since(cfg.epoch));
    audit_append(audit, line);
  }

  const auto log_serving = [&] {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "serving node=%d ts=%" PRIu64 " t_ns=%" PRId64, node,
                  replica.ts(), ns_since(cfg.epoch));
    audit_append(audit, line);
  };
  // A replica whose durable file predates this process acknowledged
  // writes in a previous life, so it catches up before serving. A truly
  // fresh replica never acked anything and serves at once. The round
  // tag is this incarnation's: sync replies to a previous life of this
  // node id must not count.
  if (durable.existed()) {
    replica.rejoin(static_cast<std::uint64_t>(ns_since(cfg.epoch)) ^
                       (static_cast<std::uint64_t>(::getpid()) << 32),
                   durable);
  } else {
    log_serving();
  }

  const auto self = static_cast<std::uint32_t>(node);
  Deadline next_sync;  // default = already due
  while (g_stop == 0) {
    if (!replica.serving() && next_sync.expired()) {
      const WireMsg req = to_wire(self, replica.sync_req());
      for (int peer = 0; peer < cfg.transport.replicas; ++peer) {
        if (peer != node) net.send(peer, req);
      }
      next_sync = Deadline::after(kSyncRetry);
    }

    // A SIGTERM after the g_stop check above still ends this poll.
    std::optional<Delivery> d =
        net.poll(replica.serving() ? Deadline::never() : next_sync);
    if (!d) continue;
    const bool was_serving = replica.serving();
    const auto reply = replica.on_message(d->src, to_abd(d->msg), durable);
    if (reply) net.send(d->src, to_wire(self, *reply));
    if (replica.serving() && !was_serving) log_serving();
  }
  // Release: the loop is done with the socket before it is destroyed.
  g_socket.store(nullptr, std::memory_order_release);
  return 0;
}

}  // namespace compreg::net::real
