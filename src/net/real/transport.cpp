#include "net/real/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/assert.h"

namespace compreg::net::real {
namespace {

// A peer that stops reading (partitioned but connected, wedged, or
// kill-9'd with the socket still half-open) must not grow our outbox
// forever: past this bound the connection is declared dead and its
// queued frames become ordinary message loss.
constexpr std::size_t kMaxOutboxBytes = 4u << 20;

std::string uds_path(const TransportConfig& cfg, int node) {
  return cfg.dir + "/replica-" + std::to_string(node) + ".sock";
}

int make_socket(TransportKind kind) {
  const int domain = kind == TransportKind::kUds ? AF_UNIX : AF_INET;
  return ::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

}  // namespace

SocketTransport::SocketTransport(TransportConfig cfg) : cfg_(std::move(cfg)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  COMPREG_CHECK(epoll_fd_ >= 0, "epoll_create1 failed (errno %d)", errno);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  COMPREG_CHECK(wake_fd_ >= 0, "eventfd failed (errno %d)", errno);
  COMPREG_CHECK(watch(EPOLL_CTL_ADD, wake_fd_, EPOLLIN),
                "epoll_ctl(eventfd) failed (errno %d)", errno);
  if (cfg_.self >= cfg_.replicas) return;  // clients are outbound-only

  listen_fd_ = make_socket(cfg_.kind);
  COMPREG_CHECK(listen_fd_ >= 0, "socket() failed (errno %d)", errno);
  if (cfg_.kind == TransportKind::kUds) {
    listen_path_ = uds_path(cfg_, cfg_.self);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    COMPREG_CHECK(listen_path_.size() < sizeof(addr.sun_path),
                  "UDS path too long: %s", listen_path_.c_str());
    std::memcpy(addr.sun_path, listen_path_.c_str(), listen_path_.size());
    ::unlink(listen_path_.c_str());
    COMPREG_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "bind(%s) failed (errno %d)", listen_path_.c_str(), errno);
  } else {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(
        static_cast<std::uint16_t>(cfg_.base_port + cfg_.self));
    COMPREG_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "bind(port %d) failed (errno %d)",
                  cfg_.base_port + cfg_.self, errno);
  }
  COMPREG_CHECK(::listen(listen_fd_, 128) == 0, "listen failed (errno %d)",
                errno);
  COMPREG_CHECK(watch(EPOLL_CTL_ADD, listen_fd_, EPOLLIN),
                "epoll_ctl(listen) failed (errno %d)", errno);
}

SocketTransport::~SocketTransport() {
  for (auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (!listen_path_.empty()) ::unlink(listen_path_.c_str());
}

int SocketTransport::dial(int dst) {
  const int fd = make_socket(cfg_.kind);
  if (fd < 0) return -1;
  int rc = 0;
  if (cfg_.kind == TransportKind::kUds) {
    const std::string path = uds_path(cfg_, dst);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.base_port + dst));
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  const bool in_progress = rc != 0 && errno == EINPROGRESS;
  if (rc != 0 && !in_progress) {
    // Dead peer (ECONNREFUSED, ENOENT, ...): unreachable right now.
    ::close(fd);
    return -1;
  }
  Conn conn;
  conn.fd = fd;
  conn.peer = dst;
  conn.connecting = in_progress;
  if (!watch(EPOLL_CTL_ADD, fd, EPOLLIN | (in_progress ? EPOLLOUT : 0u))) {
    ::close(fd);
    return -1;
  }
  conns_.emplace(fd, std::move(conn));
  peer_fd_[dst] = fd;
  ++stats_.connects;
  return fd;
}

void SocketTransport::send(int dst, const WireMsg& msg) {
  int fd = -1;
  const auto it = peer_fd_.find(dst);
  if (it != peer_fd_.end() && conns_.count(it->second) != 0) {
    fd = it->second;
  } else if (dst < cfg_.replicas) {
    fd = dial(dst);
  }
  if (fd < 0) {
    // No live connection and no way to make one (dead replica, or a
    // client whose connection has gone): fair-lossy drop.
    ++stats_.dropped_unreachable;
    return;
  }
  Conn& conn = conns_.at(fd);
  if (conn.outbox.size() - conn.out_pos > kMaxOutboxBytes) {
    ++stats_.dropped_unreachable;
    close_conn(fd, /*reset=*/true);
    return;
  }
  append_frame(conn.outbox, msg);
  ++stats_.sent;
  if (!conn.connecting) flush_writes(fd);
}

void SocketTransport::flush_writes(int fd) {
  Conn& conn = conns_.at(fd);
  while (conn.out_pos < conn.outbox.size()) {
    const ssize_t n =
        ::send(fd, conn.outbox.data() + conn.out_pos,
               conn.outbox.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      stats_.bytes_sent += static_cast<std::uint64_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(fd, /*reset=*/true);
    return;
  }
  if (conn.out_pos == conn.outbox.size()) {
    conn.outbox.clear();
    conn.out_pos = 0;
  }
  const bool want = conn.out_pos < conn.outbox.size();
  if (want != conn.want_write) {
    conn.want_write = want;
    update_epoll(fd, conn);
  }
}

bool SocketTransport::watch(int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, op, fd, &ev) == 0;
}

void SocketTransport::update_epoll(int fd, Conn& conn) {
  watch(EPOLL_CTL_MOD, fd,
        EPOLLIN | ((conn.connecting || conn.want_write) ? EPOLLOUT : 0u));
}

void SocketTransport::handle_readable(int fd) {
  unsigned char buf[16384];
  while (conns_.count(fd) != 0) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.bytes_received += static_cast<std::uint64_t>(n);
      conns_.at(fd).reader.feed(buf, static_cast<std::size_t>(n));
      drain_frames(fd);
      if (n < static_cast<ssize_t>(sizeof(buf))) return;
      continue;
    }
    if (n == 0) {  // orderly EOF: peer closed
      close_conn(fd, /*reset=*/false);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(fd, /*reset=*/true);
    return;
  }
}

void SocketTransport::drain_frames(int fd) {
  Conn& conn = conns_.at(fd);
  while (true) {
    const std::optional<WireMsg> msg = conn.reader.next();
    if (!msg) break;
    // Every frame names its sender; the first one binds this connection
    // to that logical node (later frames keep the binding fresh, so a
    // reconnect steals the mapping from its dead predecessor).
    const int peer = static_cast<int>(msg->src);
    conn.peer = peer;
    peer_fd_[peer] = fd;
    inbox_.push_back(Delivery{peer, *msg});
  }
  if (conn.reader.corrupt()) {
    ++stats_.dropped_corrupt;
    close_conn(fd, /*reset=*/true);
  }
}

void SocketTransport::handle_writable(int fd) {
  Conn& conn = conns_.at(fd);
  if (conn.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {  // connect failed: queued frames are lost
      ++stats_.dropped_unreachable;
      close_conn(fd, /*reset=*/true);
      return;
    }
    conn.connecting = false;
    // EPOLLOUT was armed for the connect; disarm it now or a writable
    // idle socket keeps the epoll set hot forever (flush_writes below
    // only re-arms when a partial write leaves the outbox nonempty).
    update_epoll(fd, conn);
  }
  flush_writes(fd);
}

void SocketTransport::close_conn(int fd, bool reset) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  const int peer = it->second.peer;
  const auto pit = peer_fd_.find(peer);
  if (pit != peer_fd_.end() && pit->second == fd) peer_fd_.erase(pit);
  conns_.erase(it);
  if (reset) ++stats_.resets;
}

void SocketTransport::wake() {
  const int saved = errno;
  const std::uint64_t one = 1;
  // Cannot fail short of a counter overflow, which still leaves it
  // readable: the wake is not lost either way.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  errno = saved;
}

bool SocketTransport::flush(std::chrono::milliseconds bound) {
  const Deadline deadline = Deadline::after(bound);
  while (std::any_of(conns_.begin(), conns_.end(), [](const auto& kv) {
    return kv.second.out_pos < kv.second.outbox.size();
  })) {
    if (deadline.expired()) return false;
    pump(deadline.remaining_ms_ceil());
  }
  return true;
}

bool SocketTransport::pump(int timeout_ms) {
  epoll_event events[32];
  const int n = ::epoll_wait(epoll_fd_, events, 32, timeout_ms);
  COMPREG_CHECK(n >= 0 || errno == EINTR, "epoll_wait failed (errno %d)",
                errno);
  bool woken = false;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t count = 0;  // drained whole: wakes do not queue
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &count, sizeof(count));
      woken = true;
      continue;
    }
    if (fd == listen_fd_) {
      while (true) {
        const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                                  SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) break;
        Conn conn;
        conn.fd = cfd;
        if (!watch(EPOLL_CTL_ADD, cfd, EPOLLIN)) {
          ::close(cfd);
          continue;
        }
        conns_.emplace(cfd, std::move(conn));
        ++stats_.accepts;
      }
      continue;
    }
    if (conns_.count(fd) == 0) continue;  // closed earlier this batch
    if ((events[i].events & EPOLLIN) != 0) handle_readable(fd);
    if (conns_.count(fd) != 0 && (events[i].events & EPOLLOUT) != 0) {
      handle_writable(fd);
    }
    if (conns_.count(fd) != 0 &&
        (events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
        (events[i].events & (EPOLLIN | EPOLLOUT)) == 0) {
      close_conn(fd, /*reset=*/true);
    }
  }
  return woken;
}

std::optional<Delivery> SocketTransport::poll(const Deadline& deadline) {
  while (inbox_.empty()) {
    // The deadline is re-checked after every round, not only when
    // epoll_wait times out: with a zero (or tiny) timeout and a
    // level-triggered event that stays ready, epoll_wait may never time
    // out, and an expired poll would spin instead of returning. A
    // rounded-up timeout that fires early just loops.
    const bool woken = pump(deadline.remaining_ms_ceil());
    if (inbox_.empty() && (woken || deadline.expired())) return std::nullopt;
  }
  Delivery d = std::move(inbox_.front());
  inbox_.pop_front();
  ++stats_.delivered;
  return d;
}

}  // namespace compreg::net::real
