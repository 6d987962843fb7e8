// The ABD register protocol, written once. Every decision that the
// simulated register (net/replicated_register.h, over SimNet) and the
// socket register (net/real/client.h, net/real/replica.h) make lives
// here, with no I/O, no clocks and no schedule points. Each side owns
// only its transport and its timing: it feeds the core what arrived and
// sends what the core returns.
//
// The protocol is the single-writer half of Attiya–Bar-Noy–Dolev, in
// the crash-recovery model of Imbs–Mostéfaoui–Perrin–Raynal. 2f+1
// replicas each hold a (timestamp, value) pair.
//
//   write  The writer tags each value with its next timestamp and
//          STOREs it to every replica. The write completes once f+1
//          replicas acknowledge.
//   read   QUERY every replica and collect f+1 distinct replies. Take
//          the maximum timestamp; the first maximum wins ties. Unless
//          every reply already carried that timestamp, STORE it back to
//          f+1 replicas before returning. The write-back is what makes
//          concurrent readers atomic rather than merely regular; on a
//          uniform quorum it would be a no-op, so it is skipped.
//
// Replica rules (AbdReplica):
//
//   STORE(ts, v)    Adopt (ts, v) iff ts is newer, persist the adopted
//                   state, and only then acknowledge ts. Persist-before-
//                   ack is what lets a crash–recover cycle keep every
//                   acknowledged write. Adopt-if-newer makes duplicated
//                   and reordered STOREs harmless.
//   QUERY, SYNC_REQ Answer with the current (ts, v).
//   rejoin          A restarted replica reloads its stable storage and
//                   stops serving. It asks every peer for its state under
//                   a fresh round tag and folds each SYNC_REPLY in
//                   (adopt-if-newer, persist). Once itself and f distinct
//                   peers have answered, it serves again: that is a read
//                   quorum, and it intersects the ack quorum of every
//                   completed write.
//   serving gate    While catching up, a replica answers nothing. Clients
//                   absorb the silence as transient loss, and two
//                   catching-up replicas cannot vouch for each other.
//
// Client rules (QuorumCollector): one collector per client role keeps,
// for the current phase's op id, the first reply from each distinct
// replica, and reports a quorum at f+1. read_choice() is the read rule.
//
// Bounds: 1 <= f <= kMaxF. A catch-up round records the peers it heard
// from in a 64-bit mask, so all 2f+1 replica ids must fit in it.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <utility>

#include "util/assert.h"

namespace compreg::net {

inline constexpr int kMaxF = 31;

// Every core object validates its f here, before any mask is shifted.
inline int checked_f(int f) {
  COMPREG_CHECK(f >= 1 && f <= kMaxF,
                "ABD needs 1 <= f <= %d (2f+1 replica ids in a 64-bit "
                "mask), got f = %d",
                kMaxF, f);
  return f;
}

// One replica's stable storage for one register. persist(ts, v) makes
// (ts, v) survive a crash and never regresses: an older ts is a no-op.
// ts() and value() return what was last made stable. DurableRecord
// (net/durable_state.h) models it in the simulator; FileDurable
// (net/real/durable_file.h) is a real file.
template <typename D, typename T>
concept DurableStore = requires(D& d, const D& cd, std::uint64_t ts,
                                const T& v) {
  d.persist(ts, v);
  { cd.ts() } -> std::convertible_to<std::uint64_t>;
  { cd.value() } -> std::convertible_to<T>;
};

// A replica's state, or one reply in a client phase.
template <typename T>
struct Stamped {
  std::uint64_t ts = 0;
  T val{};
};

// One replica. The caller passes the replica's stable storage to each
// handler that persists, so the storage stays the caller's I/O.
template <typename T, typename D>
  requires DurableStore<D, T>
class AbdReplica {
 public:
  // A fresh replica holds (0, initial) and serves at once: it never
  // acknowledged anything, so it has nothing to catch up on.
  AbdReplica(int self, int f, T initial)
      : self_(self), f_(checked_f(f)), state_{0, std::move(initial)} {
    COMPREG_CHECK(self >= 0 && self < 2 * f_ + 1,
                  "replica id %d out of range for f = %d", self, f_);
  }

  // STORE(ts, val). Returns the timestamp to acknowledge — the requested
  // one, now covered by stable storage — or nullopt (stay silent) while
  // catching up.
  std::optional<std::uint64_t> on_store(std::uint64_t ts, const T& val,
                                        D& durable) {
    if (!serving_) return std::nullopt;
    adopt(ts, val, durable);
    return ts;
  }

  // QUERY and SYNC_REQ. Returns the state to answer with, or nullopt
  // while catching up.
  std::optional<Stamped<T>> on_query() const {
    if (!serving_) return std::nullopt;
    return state_;
  }

  // Restart: reload stable storage and stop serving until the catch-up
  // round `tag` completes. The caller sends SYNC_REQ(tag) to every peer,
  // and re-sends on its own schedule if it wants to. A tag must differ
  // from every earlier round's, so stale replies cannot count.
  void rejoin(std::uint64_t tag, const D& durable) {
    tag_ = tag;
    state_ = Stamped<T>{durable.ts(), durable.value()};
    serving_ = false;
    heard_ = 0;
  }

  // SYNC_REPLY(tag, ts, val) from `peer`. Returns true when this reply
  // completes the catch-up quorum, so the replica serves from now on.
  bool on_sync_reply(int peer, std::uint64_t tag, std::uint64_t ts,
                     const T& val, D& durable) {
    if (serving_ || tag != tag_) return false;  // not catching up, or stale
    if (peer < 0 || peer >= 2 * f_ + 1 || peer == self_) return false;
    adopt(ts, val, durable);
    const std::uint64_t bit = std::uint64_t{1} << peer;
    if ((heard_ & bit) != 0) return false;  // count each peer once
    heard_ |= bit;
    if (std::popcount(heard_) < f_) return false;  // self + f peers
    serving_ = true;
    return true;
  }

  std::uint64_t ts() const { return state_.ts; }
  const T& value() const { return state_.val; }
  bool serving() const { return serving_; }
  std::uint64_t tag() const { return tag_; }

 private:
  void adopt(std::uint64_t ts, const T& val, D& durable) {
    if (ts > state_.ts) state_ = Stamped<T>{ts, val};
    durable.persist(state_.ts, state_.val);
  }

  int self_;
  int f_;
  Stamped<T> state_;
  bool serving_ = true;
  std::uint64_t tag_ = 0;    // current catch-up round
  std::uint64_t heard_ = 0;  // peers heard from in this round
};

// What a read returns, and whether it must write it back first.
template <typename T>
struct ReadChoice : Stamped<T> {
  bool write_back = false;
};

// Collects the replies to one client phase at a time, applying the read
// rule as they arrive: `choice_` holds the first maximum so far, and
// write_back turns on once two replies disagree on ts.
template <typename T>
class QuorumCollector {
 public:
  explicit QuorumCollector(int f) : f_(checked_f(f)) {}

  int replicas() const { return 2 * f_ + 1; }

  // Starts a phase: forgets every reply and returns the phase's op id,
  // which its requests carry and its replies echo.
  std::uint64_t begin() {
    heard_ = 0;
    choice_.write_back = false;
    return ++op_;
  }

  // One reply. Returns false if it is not part of this phase (another
  // op id, or a sender that is not a replica). Only the first reply
  // from each replica counts.
  bool offer(int replica, std::uint64_t op, std::uint64_t ts, const T& val) {
    if (op != op_ || replica < 0 || replica >= replicas()) return false;
    const std::uint64_t bit = std::uint64_t{1} << replica;
    if ((heard_ & bit) != 0) return true;
    if (heard_ != 0 && ts != choice_.ts) choice_.write_back = true;
    if (heard_ == 0 || ts > choice_.ts) {
      choice_.ts = ts;
      choice_.val = val;
    }
    heard_ |= bit;
    return true;
  }

  bool quorum() const { return std::popcount(heard_) > f_; }

  // The read rule's verdict on a phase that reached its quorum.
  ReadChoice<T> read_choice() const {
    COMPREG_CHECK(quorum(), "read rule needs a quorum");
    return choice_;
  }

 private:
  int f_;
  std::uint64_t op_ = 0;
  std::uint64_t heard_ = 0;  // replicas that replied in this phase
  ReadChoice<T> choice_;
};

}  // namespace compreg::net
