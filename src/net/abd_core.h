// The ABD register protocol, written once. Every decision that the
// simulated register (net/replicated_register.h, over SimNet) and the
// socket register (net/real/client.h, net/real/replica.h) make lives
// here, with no I/O, no clocks and no schedule points. Each side owns
// only its transport and its unit of time: it feeds the core what
// arrived and sends what the core returns. A replica on either side is
// one call per message, AbdReplica::on_message, so the DPOR
// certificates over the simulator cover the socket replica's dispatch.
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
// Replica rules (AbdReplica::on_message, the one dispatch that the
// socket replica process and the simulated replicas both run): each
// message in, at most one reply out, to the sender.
//
//   STORE(ts, v)    Adopt (ts, v) iff ts is newer, persist the adopted
//                   state, and only then reply STORE_ACK(ts). Persist-
//                   before-ack is what lets a crash–recover cycle keep
//                   every acknowledged write. Adopt-if-newer makes
//                   duplicated and reordered STOREs harmless.
//   QUERY, SYNC_REQ Reply QUERY_REPLY or SYNC_REPLY with the current
//                   (ts, v).
//   rejoin          A restarted replica reloads its stable storage and
//                   stops serving. It sends sync_req(), a SYNC_REQ under
//                   a fresh round tag, to every peer and folds each
//                   SYNC_REPLY in (adopt-if-newer, persist; no reply).
//                   Once itself and f distinct peers have answered, it
//                   serves again: that is a read quorum, and it
//                   intersects the ack quorum of every completed write.
//   serving gate    While catching up, a replica answers nothing. Clients
//                   absorb the silence as transient loss, and two
//                   catching-up replicas cannot vouch for each other.
//
// Client rules (AbdClient, over a QuorumCollector): a phase broadcasts
// and takes receive steps until f+1 distinct replicas reply or the
// wait's budget is spent; a reply counts only with the phase's reply
// kind and op id, once per replica. After a failed wait it backs off
// and re-broadcasts under the same op id, so late replies still count.
// After max_attempts failed waits the operation is Unavailable, never a
// hang. So is a read whose write-back is: its value is not known to
// rest on a majority, and a later read could return an older one. The
// single writer's timestamps come from one sequence (write_next),
// started at a known timestamp or seeded from one read quorum.
//
// Bounds: 1 <= f <= kMaxF. A catch-up round records the peers it heard
// from in a 64-bit mask, so all 2f+1 replica ids must fit in it.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <utility>

#include "net/backoff.h"
#include "util/assert.h"
#include "util/rng.h"

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

// The six protocol messages. Each request's reply kind is the next
// value (reply_kind). The socket wire format (net/real/wire.h) sends
// these values as its type byte.
enum class AbdKind : std::uint8_t {
  kStore = 1,       // STORE(ts, val)
  kStoreAck = 2,    // ts = the STORE's ts, now covered by stable storage
  kQuery = 3,       // QUERY
  kQueryReply = 4,  // (ts, val) = the replica's state
  kSyncReq = 5,     // rejoin catch-up: op = the round tag
  kSyncReply = 6,   // (ts, val) = the peer's state
};

// The kind that answers a STORE, QUERY or SYNC_REQ.
constexpr AbdKind reply_kind(AbdKind request) {
  return static_cast<AbdKind>(static_cast<std::uint8_t>(request) + 1);
}

// One protocol message. `op` is the client phase's op id, which its
// replies echo, or the catch-up round's tag.
template <typename T>
struct AbdMsg {
  AbdKind kind = AbdKind::kQuery;
  std::uint64_t op = 0;
  std::uint64_t ts = 0;
  T val{};
};

// One replica. The caller passes the replica's stable storage with each
// message, so the storage stays the caller's I/O.
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

  // Message `m` from node `from`. Returns the reply to send back to
  // `from`, or nullopt to stay silent: for a SYNC_REPLY, for a reply
  // kind or a kind that is not a protocol message, and for every
  // request while catching up. A STORE_ACK returns only after the
  // persist that covers it.
  std::optional<AbdMsg<T>> on_message(int from, const AbdMsg<T>& m,
                                      D& durable) {
    if (m.kind == AbdKind::kSyncReply) {
      fold_in(from, m, durable);
      return std::nullopt;
    }
    if (!serving_) return std::nullopt;
    if (m.kind == AbdKind::kStore) {
      adopt(m.ts, m.val, durable);
      return AbdMsg<T>{AbdKind::kStoreAck, m.op, m.ts};
    }
    if (m.kind == AbdKind::kQuery || m.kind == AbdKind::kSyncReq) {
      return AbdMsg<T>{reply_kind(m.kind), m.op, state_.ts, state_.val};
    }
    return std::nullopt;
  }

  // Restart: reload stable storage and stop serving until the catch-up
  // round `tag` completes. The caller sends sync_req() to every peer,
  // and re-sends on its own schedule if it wants to. A tag must differ
  // from every earlier round's, so stale replies cannot count.
  void rejoin(std::uint64_t tag, const D& durable) {
    tag_ = tag;
    state_ = Stamped<T>{durable.ts(), durable.value()};
    serving_ = false;
    heard_ = 0;
  }

  // The current catch-up round's request.
  AbdMsg<T> sync_req() const {
    return AbdMsg<T>{AbdKind::kSyncReq, tag_, state_.ts};
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

  // SYNC_REPLY from `peer`: adopted only in the current round, from a
  // peer other than itself; serving resumes at self + f distinct peers.
  void fold_in(int peer, const AbdMsg<T>& m, D& durable) {
    if (serving_ || m.op != tag_) return;  // not catching up, or stale
    if (peer < 0 || peer >= 2 * f_ + 1 || peer == self_) return;
    adopt(m.ts, m.val, durable);
    heard_ |= std::uint64_t{1} << peer;  // each peer counts once
    serving_ = std::popcount(heard_) >= f_;
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

  // Starts a phase of `request`: forgets every reply and returns the
  // phase's op id, which its requests carry and its replies echo.
  std::uint64_t begin(AbdKind request) {
    want_ = reply_kind(request);
    heard_ = 0;
    choice_.write_back = false;
    return ++op_;
  }

  // The reply rule both links hand every reply to: the phase's reply
  // kind, then offer(). False if the reply is not part of this phase.
  bool take(int replica, const AbdMsg<T>& reply) {
    return reply.kind == want_ &&
           offer(replica, reply.op, reply.ts, reply.val);
  }

  // One reply of the phase's kind. Returns false if it is not part of
  // this phase (another op id, or a sender that is not a replica). Only
  // the first reply from each replica counts.
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
  AbdKind want_ = AbdKind::kQueryReply;  // the phase's reply kind
  std::uint64_t op_ = 0;
  std::uint64_t heard_ = 0;  // replicas that replied in this phase
  ReadChoice<T> choice_;
};

struct ClientStats {
  std::uint64_t phases = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t retries = 0;      // re-broadcasts after a failed wait
  std::uint64_t unavailable = 0;  // phases that spent their budget
  std::uint64_t writebacks = 0;
  std::uint64_t writeback_skips = 0;  // uniform quorum
};

// How long a client tries, in its link's unit of time.
struct RetryBudget {
  unsigned max_attempts;  // per phase, the first attempt included
  std::uint64_t attempt;  // one attempt's wait
  unsigned backoff_base;  // see backoff_window
  unsigned backoff_cap;
};

// A client's link to the replicas, in its own unit of time.
// broadcast(phase, request) sends the phase's STORE or QUERY to every
// replica. receive(wait, phase) takes one step of a wait (an L::Wait
// made from its budget): what it receives goes to phase.take(), and it
// returns false once the budget is spent.
template <typename L, typename T>
concept AbdLink =
    std::constructible_from<typename L::Wait, std::uint64_t> &&
    requires(L& link, QuorumCollector<T>& phase, typename L::Wait& wait,
             const AbdMsg<T>& request) {
      link.broadcast(phase, request);
      { link.receive(wait, phase) } -> std::same_as<bool>;
    };

// ts == 0: no timestamp handed out, nothing sent. !ok with a ts:
// Unavailable, and the write may still take effect under that ts.
struct WriteResult {
  std::uint64_t ts = 0;
  bool ok = false;
};

// One client role (a writer, or one reader) over `Link`.
template <typename T, typename Link>
  requires AbdLink<Link, T>
class AbdClient {
 public:
  // `node` (the client's network id) salts the jitter seed. `stats`
  // must outlive the client.
  AbdClient(int f, int node, const RetryBudget& budget,
            std::uint64_t jitter_seed, ClientStats& stats, Link link)
      : phase_(f),
        budget_(budget),
        jitter_(jitter_seed ^
                (static_cast<std::uint64_t>(node) * 0x9e3779b9ull)),
        stats_(stats),
        link_(std::move(link)) {}

  // The sole writer of a register whose latest timestamp is `ts` (0 for
  // a fresh one) starts its sequence there. Any other writer seeds it.
  void start_at(std::uint64_t ts) { sequence_ = ts; }

  // `v` under the writer's next timestamp. An unseeded writer first
  // reads and goes on one past the read's ts; until a read succeeds it
  // hands out nothing.
  WriteResult write_next(const T& v) {
    if (!sequence_) {
      const std::optional<Stamped<T>> seed = read();
      if (!seed) return WriteResult{};
      sequence_ = seed->ts;
    }
    const std::uint64_t ts = ++*sequence_;
    return WriteResult{ts, write(ts, v)};
  }

  // A write under the caller's timestamp. False means Unavailable: the
  // write may still take effect later.
  bool write(std::uint64_t ts, const T& v) {
    ++stats_.writes;
    return quorum_phase(AbdMsg<T>{AbdKind::kStore, 0, ts, v});
  }

  // nullopt means Unavailable.
  std::optional<Stamped<T>> read() {
    ++stats_.reads;
    if (!quorum_phase(AbdMsg<T>{AbdKind::kQuery})) return std::nullopt;
    ReadChoice<T> choice = phase_.read_choice();
    if (!choice.write_back) {
      ++stats_.writeback_skips;
    } else if (quorum_phase(
                   AbdMsg<T>{AbdKind::kStore, 0, choice.ts, choice.val})) {
      ++stats_.writebacks;
    } else {
      return std::nullopt;
    }
    return Stamped<T>{choice.ts, std::move(choice.val)};
  }

 private:
  // One phase of `request`, under the phase's op id. A backoff wait
  // still takes replies: a late quorum ends it early.
  bool quorum_phase(AbdMsg<T> request) {
    ++stats_.phases;
    request.op = phase_.begin(request.kind);
    for (unsigned attempt = 0; attempt < budget_.max_attempts; ++attempt) {
      if (attempt > 0) ++stats_.retries;
      link_.broadcast(phase_, request);
      if (await(budget_.attempt)) return true;
      if (attempt + 1 == budget_.max_attempts) break;
      const std::uint64_t window = backoff_window(
          budget_.backoff_base, budget_.backoff_cap, attempt, jitter_);
      if (await(window)) return true;
    }
    ++stats_.unavailable;
    return false;
  }

  // Receive steps until the quorum forms or `budget` is spent. The first
  // step precedes the check: the simulator may deliver replies between
  // the broadcast's sends, and a wait still takes a step then.
  bool await(std::uint64_t budget) {
    typename Link::Wait wait(budget);
    // audit: exempt(waitfree, bounded by the wait's budget - every receive step spends it, one SimNet poll per unit or the socket link's deadline, and the step reports it spent)
    do {
      if (!link_.receive(wait, phase_)) return false;
    } while (!phase_.quorum());
    return true;
  }

  QuorumCollector<T> phase_;
  RetryBudget budget_;
  Rng jitter_;
  ClientStats& stats_;
  Link link_;
  std::optional<std::uint64_t> sequence_;  // last ts handed out, if seeded
};

}  // namespace compreg::net
