// ReplicatedRegister: the ABD register of net/abd_core.h over SimNet,
// the networked substrate for the paper's construction.
//
// Every message is an AbdMsg in a SimNet delivery closure, so one poll
// is one atomic network step. A replica hands each message to
// AbdReplica::on_message, the dispatch the socket replica process runs
// too, and sends back what it returns. The writer and each reader slot
// are an AbdClient over a SimLink, which counts time in network polls
// (kAttemptPolls, kBackoff*Polls), so every bound is deterministic. A
// NetFaultPlan `recover` cycle calls on_recover, which reloads the
// replica's DurableRecord (net/durable_state.h) and sends the catch-up
// round. Every ack and reply passes the DurableMedium auditor, and
// NetConfig::amnesia seeds the two discipline violations
// (ack-before-persist, blank rejoin) for certification runs.
//
// try_read/try_write return Unavailable as a value. read/write (the
// MrswCell interface, which has no failure channel) throw
// UnavailableError, a sched::ProcessParked: the crash-aware workloads
// and checkers treat a quorum-starved process like a crash-stopped one,
// and record its interrupted operation as pending.
//
// CompositeRegister builds its base registers with the fixed Cell
// signature (readers, initial, label, payload_bits), so the network
// context is ambient: install a ScopedNetFabric, then build the
// register inside its scope. Every cell the construction allocates
// (all the Y[0] records of the recursion and all the mod-3 Z registers)
// becomes its own ReplicatedRegister whose 2f+1 replica copies live on
// the fabric's shared replica nodes: one simulated server process per
// node hosting all cells, which is exactly what a NetFaultPlan
// partition or replica crash then takes out wholesale.
//
//   net::NetConfig cfg;                  // f, amnesia
//   net::ScopedNetFabric fab(cfg, plan, seed);
//   core::CompositeRegister<std::uint64_t, net::NetCell, net::NetCell>
//       snap(components, readers, 0);
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
#include "net/durable_state.h"
#include "net/sim_net.h"
#include "sched/access.h"
#include "sched/schedule_point.h"
#include "util/assert.h"
#include "util/op_counter.h"
#include "util/space_accounting.h"

namespace compreg::net {

// Thrown by read()/write() when a quorum phase exhausts its retry
// budget. Deriving from ProcessParked means an unhandled Unavailable
// halts the issuing virtual process like a crash-stop — the graceful
// degradation contract documented in docs/fault_model.md.
struct UnavailableError : sched::ProcessParked {
  explicit UnavailableError(const char* op_name) : op(op_name) {}
  const char* op;  // "write" or "read"
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

// The simulated client's timing, in network polls (= schedule points
// while waiting), and its retry budget.
inline constexpr unsigned kAttemptPolls = 24;     // one attempt's wait
inline constexpr unsigned kBackoffBasePolls = 2;  // doubles per attempt
inline constexpr unsigned kBackoffCapPolls = 32;  // bound on one window
inline constexpr unsigned kMaxAttempts = 5;  // per phase, first included
inline constexpr std::uint64_t kJitterSeed = 0x9e7c0ffeeull;

struct NetConfig {
  int f = 1;                         // crash tolerance; replicas = 2f + 1
  Amnesia amnesia = Amnesia::kNone;  // certification-only seeded fault

  int replicas() const { return 2 * f + 1; }
};

// One SimNet plus the NetConfig that every cell on it shares, installed
// as the ambient fabric for its lifetime: the cell constructor attaches
// to the innermost one. Thread-local, not process-global: a fabric is
// installed around cell construction only, on the thread that owns the
// scenario, so parallel DPOR workers can each install their own.
class ScopedNetFabric {
 public:
  ScopedNetFabric(const NetConfig& cfg, NetFaultPlan plan, std::uint64_t seed)
      : cfg_(cfg),
        net_(cfg.replicas(), std::move(plan), seed),
        prev_(current_) {
    current_ = this;
  }
  ~ScopedNetFabric() { current_ = prev_; }

  ScopedNetFabric(const ScopedNetFabric&) = delete;
  ScopedNetFabric& operator=(const ScopedNetFabric&) = delete;

  SimNet& net() { return net_; }
  const NetConfig& cfg() const { return cfg_; }

  // The innermost installed fabric, or nullptr.
  static ScopedNetFabric* current() { return current_; }

 private:
  static inline thread_local ScopedNetFabric* current_ = nullptr;

  NetConfig cfg_;
  SimNet net_;
  ScopedNetFabric* prev_;
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
    const RetryBudget budget{kMaxAttempts, kAttemptPolls, kBackoffBasePolls,
                             kBackoffCapPolls};
    for (int j = 0; j <= readers; ++j) {
      const int node = net_.new_client_node();
      clients_.emplace_back(cfg.f, node, budget, kJitterSeed,
                            net_.stats().client, SimLink{this, node});
    }
    clients_.front().start_at(0);  // the sole writer of a fresh register
    // One logical MRSW register; physically 2f+1 replicated copies.
    account_register(label, payload_bits, readers,
                     static_cast<std::uint64_t>(cfg.replicas()));
  }

  // The Cell signature, over the ambient fabric.
  ReplicatedRegister(int readers, T initial, const char* label = "net_cell",
                     std::uint64_t payload_bits = sizeof(T) * 8)
      : ReplicatedRegister(ambient().net(), ambient().cfg(), readers,
                           std::move(initial), label, payload_bits) {}

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
  template <typename F>
  auto read(int reader_id, F&& f) {
    return f(read(reader_id));
  }

  // Graceful-degradation surface: false/nullopt means the retry budget
  // ran out without reaching a majority (Unavailable). A failed write
  // may still take effect later — its timestamped value can survive on
  // a minority and be adopted by a future read's write-back — but it
  // can never be un-written, exactly like a crash-interrupted write.
  bool try_write(const T& value) {
    sched::observe(access_.write());
    ++op_counters().reg_writes;
    return clients_.front().write_next(value).ok;
  }

  std::optional<T> try_read(int reader_id) {
    COMPREG_DCHECK(reader_id >= 0 &&
                   reader_id + 1 < static_cast<int>(clients_.size()));
    sched::observe(access_.read(reader_id));
    ++op_counters().reg_reads;
    std::optional<Stamped<T>> got =
        clients_[static_cast<std::size_t>(reader_id) + 1].read();
    if (!got) return std::nullopt;
    return std::move(got->val);
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

 private:
  static ScopedNetFabric& ambient() {
    ScopedNetFabric* fabric = ScopedNetFabric::current();
    COMPREG_CHECK(fabric != nullptr,
                  "NetCell built with no ambient fabric; wrap the "
                  "construction in a net::ScopedNetFabric");
    return *fabric;
  }

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

  // One client's side of SimNet. Replies go to the client's collector,
  // which never moves (the clients live in a deque).
  struct SimLink {
    ReplicatedRegister* reg;
    int node;

    struct Wait {
      explicit Wait(std::uint64_t budget) : polls(budget) {}
      std::uint64_t polls;  // left in this wait
    };

    void broadcast(QuorumCollector<T>& phase, const AbdMsg<T>& request) {
      for (int r = 0; r < reg->cfg_.replicas(); ++r) {
        reg->send(node, r, request, &phase);
      }
    }

    // One poll per unit of budget. The replies it delivers reach the
    // collector from their delivery closures.
    bool receive(Wait& wait, QuorumCollector<T>& /*phase*/) {
      if (wait.polls == 0) return false;
      --wait.polls;
      reg->net_.poll();
      return true;
    }
  };

  // `m` from node `from` to node `to`, as a SimNet delivery closure.
  // `phase` collects the replies of a client's request, and is null
  // between replicas.
  void send(int from, int to, AbdMsg<T> m, QuorumCollector<T>* phase) {
    // audit: exempt(waitfree, a message path, not a call chain - send only enqueues the closure and deliver runs from a later SimNet poll; only a request gets a reply, so one message causes at most one more)
    net_.send(from, to, [this, from, to, m = std::move(m), phase] {
      deliver(from, to, m, phase);
    });
  }

  // A client's collector takes a reply; a replica's core takes anything
  // else, and its reply is audited against its stable storage and sent
  // back. Only a STORE under kAckBeforePersist persists nowhere.
  void deliver(int from, int to, const AbdMsg<T>& m,
               QuorumCollector<T>* phase) {
    if (to >= cfg_.replicas()) {
      phase->take(from, m);
      return;
    }
    const auto r = static_cast<std::size_t>(to);
    SimDurable dur{m.kind == AbdKind::kStore &&
                           cfg_.amnesia == Amnesia::kAckBeforePersist
                       ? nullptr
                       : &durable_[r]};
    std::optional<AbdMsg<T>> reply = replicas_[r].on_message(from, m, dur);
    if (!reply) return;
    if (reply->kind == AbdKind::kStoreAck) {
      net_.durable().audit_ack(access_.cell(), access_.decl().owner, to,
                               reply->ts);
    } else {
      net_.durable().audit_reply(access_.cell(), access_.decl().owner, to,
                                 reply->ts);
    }
    if (reply->kind == AbdKind::kSyncReply) ++net_.stats().catchup_msgs;
    send(to, from, *std::move(reply), phase);
  }

  // SimNet rejoin hook: replica `node` just came back from a crash–
  // downtime cycle. It reloads its DurableRecord and sends its SYNC_REQ
  // to every peer; the replies ride the network like any other message.
  // The kBlankRejoin mutant instead serves a blank slate at once.
  void on_recover(int node) {
    Replica& rep = replicas_[static_cast<std::size_t>(node)];
    if (cfg_.amnesia == Amnesia::kBlankRejoin) {
      rep = Replica(node, cfg_.f, initial_);
      return;
    }
    DurableRecord<T>& record = durable_[static_cast<std::size_t>(node)];
    record.reload();
    rep.rejoin(rep.tag() + 1, SimDurable{&record});
    for (int r = 0; r < cfg_.replicas(); ++r) {
      if (r == node) continue;
      ++net_.stats().catchup_msgs;
      send(node, r, rep.sync_req(), nullptr);
    }
  }

  SimNet& net_;
  NetConfig cfg_;
  sched::AccessLabel access_;  // model-level SWMR identity of this cell
  T initial_;
  std::vector<Replica> replicas_;          // volatile state (crash-lost)
  std::vector<DurableRecord<T>> durable_;  // stable state (crash-proof)
  std::uint64_t hook_token_ = 0;
  // The writer, then one client per reader slot.
  std::deque<AbdClient<T, SimLink>> clients_;
};

// The name under which the construction takes ReplicatedRegister as its
// Cell: CompositeRegister<T, net::NetCell, net::NetCell>.
template <typename T>
using NetCell = ReplicatedRegister<T>;

}  // namespace compreg::net
