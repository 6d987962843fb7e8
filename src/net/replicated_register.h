// ReplicatedRegister: the ABD register of net/abd_core.h driven over
// SimNet — the networked substrate for the paper's construction.
//
// The protocol's decisions (replica handlers, quorum collection, the
// read rule, the bounds on f) live in net/abd_core.h. This file is its
// simulated transport: requests and replies are SimNet delivery
// closures, so one poll is one atomic network step. A NetFaultPlan
// `recover` cycle calls on_recover, which reloads the replica's
// DurableRecord (net/durable_state.h) and sends the catch-up round.
// Every ack and reply passes the DurableMedium auditor, and
// NetConfig::amnesia seeds the two discipline violations
// (ack-before-persist, blank rejoin) for certification runs.
//
// Timing is counted in network polls, so every bound is deterministic.
// Each attempt of a quorum phase broadcasts to all replicas and polls
// for at most `timeout_polls` steps; failed attempts re-send after a
// bounded exponential backoff (net/backoff.h) up to `max_attempts`
// times, after which the operation degrades to an explicit Unavailable
// outcome — never a hang, and never a non-linearizable read (a read
// only returns after its chosen value provably rests on a majority).
// try_read/try_write surface that outcome as a value; read/write (the
// MrswCell interface, which has no failure channel) throw
// UnavailableError, which derives from sched::ProcessParked so the
// crash-aware workloads and checkers treat a quorum-starved
// process exactly like a crash-stopped one: its interrupted operation
// is recorded pending — it may or may not take effect, but cannot
// un-happen.
//
// SIMULATOR-ONLY for concurrent use (the replica state and SimNet
// queue are plain fields serialized by the lockstep); single-threaded
// use works anywhere, which the unit tests rely on.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/abd_core.h"
#include "net/backoff.h"
#include "net/durable_state.h"
#include "net/sim_net.h"
#include "sched/access.h"
#include "sched/schedule_point.h"
#include "util/assert.h"
#include "util/op_counter.h"
#include "util/rng.h"
#include "util/space_accounting.h"

namespace compreg::net {

// Thrown by read()/write() when a quorum phase exhausts its retry
// budget. Deriving from ProcessParked means an unhandled Unavailable
// halts the issuing virtual process like a crash-stop — the graceful
// degradation contract documented in docs/fault_model.md.
struct UnavailableError : sched::ProcessParked {
  explicit UnavailableError(const char* op_name) : op(op_name) {}
  const char* op;  // "write", "read-query", or "read-writeback"
};

// Seeded durability mutants for certification runs (tests, verify
// tools). Each one breaks the crash-recovery discipline in a way the
// durability auditor and the crash-aware linearizability checkers must
// flag; production configs keep kNone.
enum class Amnesia : std::uint8_t {
  kNone = 0,
  // Replica acknowledges STOREs without persisting first: a crash
  // between ack and persist forgets an acknowledged write.
  kAckBeforePersist,
  // Rejoining replica serves immediately from a blank slate: no
  // durable reload, no quorum catch-up.
  kBlankRejoin,
};

// Client-side robustness knobs. All quantities are network polls
// (= schedule points while waiting), so every bound is deterministic.
struct NetConfig {
  int f = 1;                    // crash tolerance; replicas = 2f + 1
  unsigned timeout_polls = 24;  // per-attempt deadline
  unsigned max_attempts = 5;    // per quorum phase (first try included)
  unsigned backoff_base = 2;    // polls; doubles per failed attempt
  unsigned backoff_cap = 32;    // upper bound on one backoff window
  std::uint64_t jitter_seed = 0x9e7c0ffeeull;
  Amnesia amnesia = Amnesia::kNone;  // certification-only seeded fault

  int replicas() const { return 2 * f + 1; }
};

template <typename T>
class ReplicatedRegister {
 public:
  // `readers` reader slots (one concurrent reader per slot, matching
  // the MRSW contract); the writer is a separate implicit endpoint.
  ReplicatedRegister(SimNet& net, const NetConfig& cfg, int readers,
                     T initial, const char* label = "net",
                     std::uint64_t payload_bits = sizeof(T) * 8)
      : net_(net),
        cfg_(cfg),
        access_(label, sched::Discipline::kSwmr, readers),
        initial_(std::move(initial)) {
    COMPREG_CHECK(readers >= 1, "need at least one reader slot");
    COMPREG_CHECK(net.replicas() == cfg.replicas(),
                  "SimNet has %d replica nodes, NetConfig wants %d",
                  net.replicas(), cfg.replicas());
    for (int r = 0; r < cfg.replicas(); ++r) {
      replicas_.emplace_back(r, cfg.f, initial_);
      durable_.emplace_back(net.durable(), access_.cell(), label, r,
                            initial_);
    }
    hook_token_ =
        net_.add_recover_hook([this](int node) { on_recover(node); });
    for (int j = 0; j <= readers; ++j) {
      endpoints_.emplace_back(net_.new_client_node(), cfg_);
    }
    // One logical MRSW register; physically 2f+1 replicated copies.
    account_register(label, payload_bits, readers,
                     static_cast<std::uint64_t>(cfg.replicas()));
  }

  ~ReplicatedRegister() { net_.remove_recover_hook(hook_token_); }

  ReplicatedRegister(const ReplicatedRegister&) = delete;
  ReplicatedRegister& operator=(const ReplicatedRegister&) = delete;

  // MrswCell surface: throws UnavailableError on quorum loss.
  void write(const T& value) {
    if (!try_write(value)) throw UnavailableError("write");
  }

  T read(int reader_id) {
    std::optional<T> out = try_read(reader_id);
    if (!out) throw UnavailableError("read");
    return *std::move(out);
  }

  // Graceful-degradation surface: false/nullopt means the retry budget
  // ran out without reaching a majority (Unavailable). A failed write
  // may still take effect later — its timestamped value can survive on
  // a minority and be adopted by a future read's write-back — but it
  // can never be un-written, exactly like a crash-interrupted write.
  bool try_write(const T& value) {
    sched::observe(access_.write());
    ++op_counters().reg_writes;
    ++write_ts_;
    return quorum_phase(endpoints_.front(), Stamped<T>{write_ts_, value});
  }

  std::optional<T> try_read(int reader_id) {
    COMPREG_DCHECK(reader_id >= 0 &&
                   reader_id + 1 < static_cast<int>(endpoints_.size()));
    sched::observe(access_.read(reader_id));
    ++op_counters().reg_reads;
    Endpoint& ep = endpoints_[static_cast<std::size_t>(reader_id) + 1];
    if (!quorum_phase(ep, std::nullopt)) return std::nullopt;
    ReadChoice<T> choice = ep.phase.read_choice();
    if (!choice.write_back) {
      ++net_.stats().client_writeback_skips;
    } else if (quorum_phase(ep, choice)) {
      ++net_.stats().client_writebacks;
    } else {
      return std::nullopt;
    }
    return std::move(choice.val);
  }

  // Direct replica inspection, for tests and benches.
  std::uint64_t replica_ts(int r) const {
    return replicas_[static_cast<std::size_t>(r)].ts();
  }
  const T& replica_val(int r) const {
    return replicas_[static_cast<std::size_t>(r)].value();
  }
  // Stable-storage view of one replica (what a crash cannot erase).
  std::uint64_t durable_ts(int r) const {
    return durable_[static_cast<std::size_t>(r)].ts();
  }
  const T& durable_val(int r) const {
    return durable_[static_cast<std::size_t>(r)].value();
  }
  // False while the replica is mid-rejoin (up, but not yet caught up).
  bool replica_serving(int r) const {
    return replicas_[static_cast<std::size_t>(r)].serving();
  }
  std::uint64_t write_ts() const { return write_ts_; }

 private:
  // The core's view of one replica's DurableRecord. `record` is null
  // only for a STORE under the kAckBeforePersist mutant: the persist
  // the core makes before that ack goes nowhere.
  struct SimDurable {
    DurableRecord<T>* record;
    void persist(std::uint64_t ts, const T& value) {
      if (record != nullptr) record->persist(ts, value);
    }
    std::uint64_t ts() const { return record->ts(); }
    const T& value() const { return record->value(); }
  };
  using Replica = AbdReplica<T, SimDurable>;

  // One client role (the writer, or one reader slot): a network node id
  // plus its phase collector. Endpoints are stable in memory (deque)
  // because delivery closures capture references.
  struct Endpoint {
    Endpoint(int id, const NetConfig& cfg)
        : node(id),
          phase(cfg.f),
          jitter(cfg.jitter_seed ^
                 (static_cast<std::uint64_t>(id) * 0x9e3779b9ull)) {}

    int node;
    QuorumCollector<T> phase;
    Rng jitter;
  };

  // STORE, from the writer or a reader's write-back. The auditor checks
  // each ack against the replica's stable storage.
  void send_store(Endpoint& ep, int r, std::uint64_t op,
                  const Stamped<T>& req) {
    net_.send(ep.node, r, [this, &ep, r, op, req] {
      SimDurable dur{cfg_.amnesia == Amnesia::kAckBeforePersist
                         ? nullptr
                         : &durable_[static_cast<std::size_t>(r)]};
      const std::optional<std::uint64_t> acked =
          replicas_[static_cast<std::size_t>(r)].on_store(req.ts, req.val,
                                                          dur);
      if (!acked) return;
      net_.durable().audit_ack(access_.cell(), access_.decl().owner, r,
                               *acked);
      net_.send(r, ep.node, [&ep, r, op, ts = *acked] {
        ep.phase.offer(r, op, ts, T{});
      });
    });
  }

  // QUERY or SYNC_REQ at replica r: if it serves, its state is audited
  // and sent to node `to`, where `deliver` takes it. Returns whether a
  // reply was sent.
  template <typename Deliver>
  bool answer_query(int r, int to, Deliver deliver) {
    const std::optional<Stamped<T>> state =
        replicas_[static_cast<std::size_t>(r)].on_query();
    if (!state) return false;
    net_.durable().audit_reply(access_.cell(), access_.decl().owner, r,
                               state->ts);
    net_.send(r, to, [deliver, reply = *state] { deliver(reply); });
    return true;
  }

  // SimNet rejoin hook: replica `node` just came back from a crash–
  // downtime cycle. It reloads its DurableRecord and asks every peer
  // for its state; the replies ride the network like any other message.
  // The kBlankRejoin mutant instead serves a blank slate at once.
  void on_recover(int node) {
    Replica& rep = replicas_[static_cast<std::size_t>(node)];
    if (cfg_.amnesia == Amnesia::kBlankRejoin) {
      rep = Replica(node, cfg_.f, initial_);
      return;
    }
    DurableRecord<T>& record = durable_[static_cast<std::size_t>(node)];
    record.reload();
    const std::uint64_t tag = rep.tag() + 1;
    rep.rejoin(tag, SimDurable{&record});
    for (int r = 0; r < cfg_.replicas(); ++r) {
      if (r == node) continue;
      ++net_.stats().catchup_msgs;
      net_.send(node, r, [this, node, r, tag, &record] {
        const auto fold_in = [this, node, r, tag, &record](
                                 const Stamped<T>& reply) {
          SimDurable dur{&record};
          replicas_[static_cast<std::size_t>(node)].on_sync_reply(
              r, tag, reply.ts, reply.val, dur);
        };
        if (answer_query(r, node, fold_in)) ++net_.stats().catchup_msgs;
      });
    }
  }

  // Collects a quorum for a fresh phase — a STORE of `store`, or a QUERY
  // without one — retrying with bounded exponential backoff. Returns
  // false (Unavailable) once the budget is spent.
  bool quorum_phase(Endpoint& ep, const std::optional<Stamped<T>>& store) {
    ++net_.stats().client_phases;
    const std::uint64_t op = ep.phase.begin();
    const int n = cfg_.replicas();
    for (unsigned attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
      if (attempt > 0) ++net_.stats().client_retries;
      for (int r = 0; r < n; ++r) {
        if (store) {
          send_store(ep, r, op, *store);
        } else {
          net_.send(ep.node, r, [this, &ep, r, op] {
            answer_query(r, ep.node, [&ep, r, op](const Stamped<T>& reply) {
              ep.phase.offer(r, op, reply.ts, reply.val);
            });
          });
        }
      }
      for (unsigned i = 0; i < cfg_.timeout_polls; ++i) {
        net_.poll();
        if (ep.phase.quorum()) return true;
      }
      if (attempt + 1 == cfg_.max_attempts) break;
      // Bounded exponential backoff with deterministic jitter. Backoff
      // polls still drive the network, so a late quorum short-circuits.
      const std::uint64_t window = backoff_window(
          cfg_.backoff_base, cfg_.backoff_cap, attempt, ep.jitter);
      for (std::uint64_t i = 0; i < window; ++i) {
        ++net_.stats().client_backoff_polls;
        net_.poll();
        if (ep.phase.quorum()) return true;
      }
    }
    ++net_.stats().client_unavailable;
    return false;
  }

  SimNet& net_;
  NetConfig cfg_;
  sched::AccessLabel access_;  // model-level SWMR identity of this cell
  T initial_;
  std::vector<Replica> replicas_;          // volatile state (crash-lost)
  std::vector<DurableRecord<T>> durable_;  // stable state (crash-proof)
  std::uint64_t hook_token_ = 0;
  // The writer, then one endpoint per reader slot.
  std::deque<Endpoint> endpoints_;
  std::uint64_t write_ts_ = 0;
};

}  // namespace compreg::net
