// The server's one thread handoff, and why batched reads stay fresh.
//
// Batcher<T> is a mutex + condvar around a vector. Producers put()
// items; the one consumer swaps out the ENTIRE pending queue at once.
// The server runs three of them: admitted reads to the read worker,
// admitted writes to the write worker, and completions back to the
// front-end. The wait-free discipline applies to the telemetry on the
// operation path, not to the service layer's thread handoffs.
//
// Reads: concurrent reader collects share one quorum round. ABD reads
// are expensive — a query quorum plus (usually) a write-back quorum.
// When N clients read concurrently, their collects are redundant: one
// quorum round started after all N requests arrived can answer every
// one of them with a value that is at least as fresh as what each would
// have collected alone (the one-round fast-read observation of
// Imbs–Mostéfaoui–Perrin–Raynal, applied server-side). The staleness
// argument is purely temporal and lives in take(): a batch is the
// swap-out of the whole pending queue, so the shared collect begins
// strictly after every member's put — each member gets a value no
// staler than a fresh collect it could have started itself. Requests
// that arrive while a round is in flight wait for the next round; they
// are never folded into a collect that predates them.
//
// Writes: the write worker takes the whole queue too, and writes it in
// FIFO order with sequential timestamps, so timestamp order is still
// arrival order.
//
// Completions: the front-end sleeps in epoll, not on the condvar, and
// drains with try_take(). put() reports whether the item landed in an
// empty queue — the one case where the consumer may be asleep and the
// producer must wake it (SocketTransport::wake()).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "server/protocol.h"

namespace compreg::server {

// An admitted request and its arrival time: the item of the read and
// write handoffs.
struct Admitted {
  Request req;
  std::chrono::steady_clock::time_point t0;
};

template <class T>
class Batcher {
 public:
  // Queues one item. True when the queue was empty before it.
  bool put(const T& item) {
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_empty = pending_.empty();
      pending_.push_back(item);
    }
    cv_.notify_one();
    return was_empty;
  }

  // Blocks until at least one item is pending (or stop()), then swaps
  // out and returns the whole queue. Empty = stopped and drained.
  std::vector<T> take() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !pending_.empty() || stopped_; });
    return std::exchange(pending_, {});
  }

  // Non-blocking take(): the current queue, possibly empty.
  std::vector<T> try_take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(pending_, {});
  }

  // Items still pending are handed out by take() before it reports
  // stopped-and-drained.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<T> pending_;
  bool stopped_ = false;
};

}  // namespace compreg::server
