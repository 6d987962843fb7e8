// Retry timing for the ABD client (net/abd_core.h), in the unit of its
// link: network polls in the simulator, milliseconds on sockets.
// backoff_window's arithmetic is easy to get wrong (shift overflow,
// jitter draw discipline), so it lives here once, audited by
// tests/net/backoff_test.cpp.
//
// Deadline wraps the monotonic clock (std::chrono::steady_clock =
// CLOCK_MONOTONIC on Linux) for the socket side: attempt budgets,
// epoll_wait timeouts and fault windows all compare against a Deadline,
// so nothing in src/net/real/ reads the wall clock (which can jump).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "util/rng.h"

namespace compreg::net {

// One bounded exponential backoff window: min(cap, base * 2^attempt)
// plus deterministic jitter in [0, window/2], in the caller's unit. The
// window saturates at `cap` where the shift would overflow (UB at
// attempt >= 64). Consumes exactly one draw from `jitter`.
inline std::uint64_t backoff_window(unsigned base, unsigned cap,
                                    unsigned attempt, Rng& jitter) {
  std::uint64_t window = cap;
  const std::uint64_t wide = static_cast<std::uint64_t>(base);
  if (base == 0) {
    window = 0;
  } else if (attempt < 64 && ((wide << attempt) >> attempt) == wide) {
    window = std::min<std::uint64_t>(cap, wide << attempt);
  }
  window += jitter.below(window / 2 + 1);
  return window;
}

// A point on the monotonic clock that a bounded wait must not cross.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Already expired (poll-without-blocking).
  Deadline() : at_(Clock::time_point::min()) {}

  static Deadline after(Clock::duration d) { return Deadline(Clock::now() + d); }
  static Deadline at(Clock::time_point t) { return Deadline(t); }
  static Deadline never() { return Deadline(Clock::time_point::max()); }

  bool unbounded() const { return at_ == Clock::time_point::max(); }
  bool expired() const { return !unbounded() && Clock::now() >= at_; }
  Clock::time_point when() const { return at_; }

  // Time left, clamped at zero.
  Clock::duration remaining() const {
    if (unbounded()) return Clock::duration::max();
    const Clock::time_point now = Clock::now();
    return now >= at_ ? Clock::duration::zero() : at_ - now;
  }

  // epoll_wait-shaped timeout: -1 = block forever, otherwise the number
  // of whole milliseconds that covers the remaining time (rounded UP so
  // a 100us budget waits 1ms instead of spinning on 0).
  int remaining_ms_ceil() const {
    if (unbounded()) return -1;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining())
            .count();
    if (ns <= 0) return 0;
    const std::int64_t ms = (ns + 999'999) / 1'000'000;
    return static_cast<int>(
        std::min<std::int64_t>(ms, std::numeric_limits<int>::max()));
  }

  // The earlier of two deadlines (attempt budget vs fault-release time).
  static Deadline earlier(const Deadline& a, const Deadline& b) {
    return a.at_ <= b.at_ ? a : b;
  }

 private:
  explicit Deadline(Clock::time_point t) : at_(t) {}

  Clock::time_point at_;
};

}  // namespace compreg::net
