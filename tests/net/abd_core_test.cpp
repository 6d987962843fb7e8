// The sans-IO ABD core (net/abd_core.h) on its own: the replica's
// dispatch against a fake stable storage that logs every call, the
// quorum collector, its reply rule and the read rule, the client's retry
// loop, read sequence and writer timestamp sequence over scripted links,
// and the bounds on f. Both the SimNet register and the socket register
// run exactly this code.
#include "net/abd_core.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/durable_state.h"
#include "net/real/durable_file.h"

namespace compreg::net {
namespace {

static_assert(DurableStore<DurableRecord<std::uint64_t>, std::uint64_t>);
static_assert(DurableStore<real::FileDurable, std::uint64_t>);

// Stable storage that appends "persist <ts>=<val>" to a shared event
// log, so a test can see where persists fall among the acks.
struct LogDurable {
  std::vector<std::string>* log;
  std::uint64_t ts_ = 0;
  std::uint64_t val_ = 0;

  void persist(std::uint64_t ts, std::uint64_t val) {
    log->push_back("persist " + std::to_string(ts) + "=" +
                   std::to_string(val));
    if (ts > ts_) {
      ts_ = ts;
      val_ = val;
    }
  }
  std::uint64_t ts() const { return ts_; }
  std::uint64_t value() const { return val_; }
};

using Replica = AbdReplica<std::uint64_t, LogDurable>;
using Msg = AbdMsg<std::uint64_t>;
using Reply = std::optional<Msg>;

constexpr int kClient = 9;  // a client node id, above every replica's

static_assert(reply_kind(AbdKind::kStore) == AbdKind::kStoreAck);
static_assert(reply_kind(AbdKind::kQuery) == AbdKind::kQueryReply);
static_assert(reply_kind(AbdKind::kSyncReq) == AbdKind::kSyncReply);

// Drives one STORE the way a transport does: the ack goes out (here:
// into the log) only once on_message has returned it.
void store(Replica& rep, LogDurable& dur, std::uint64_t ts,
           std::uint64_t val) {
  const Reply ack =
      rep.on_message(kClient, Msg{AbdKind::kStore, 1, ts, val}, dur);
  if (ack) dur.log->push_back("ack " + std::to_string(ack->ts));
}

// Folds SYNC_REPLY(tag, ts, val) from `peer` in. It never gets a reply.
// Returns whether the replica serves afterwards.
bool sync_reply(Replica& rep, LogDurable& dur, int peer, std::uint64_t tag,
                std::uint64_t ts, std::uint64_t val) {
  EXPECT_EQ(rep.on_message(peer, Msg{AbdKind::kSyncReply, tag, ts, val}, dur),
            std::nullopt);
  return rep.serving();
}

TEST(AbdReplicaTest, PersistsBeforeTheAckReturns) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  Replica rep(/*self=*/0, /*f=*/1, /*initial=*/0);
  store(rep, dur, 1, 10);
  store(rep, dur, 2, 20);
  EXPECT_EQ(log, (std::vector<std::string>{"persist 1=10", "ack 1",
                                           "persist 2=20", "ack 2"}));
  EXPECT_EQ(dur.ts(), 2u);
}

TEST(AbdReplicaTest, StoreAdoptsOnlyIfNewer) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  Replica rep(0, 1, 0);
  store(rep, dur, 5, 50);
  store(rep, dur, 3, 30);  // older: kept out, still acknowledged
  store(rep, dur, 5, 99);  // same ts: not newer either
  EXPECT_EQ(rep.ts(), 5u);
  EXPECT_EQ(rep.value(), 50u);
  // The ack names the requested ts; stable storage holds at least it.
  EXPECT_EQ(log, (std::vector<std::string>{"persist 5=50", "ack 5",
                                           "persist 5=50", "ack 3",
                                           "persist 5=50", "ack 5"}));
  const Reply state = rep.on_message(kClient, Msg{AbdKind::kQuery, 2}, dur);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->ts, 5u);
  EXPECT_EQ(state->val, 50u);
}

TEST(AbdReplicaTest, EachRequestGetsItsReplyKindEchoingItsOp) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  Replica rep(/*self=*/1, /*f=*/1, 0);
  const Reply ack =
      rep.on_message(kClient, Msg{AbdKind::kStore, 4, 7, 70}, dur);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, AbdKind::kStoreAck);
  EXPECT_EQ(ack->op, 4u);
  EXPECT_EQ(ack->ts, 7u);
  const Reply query = rep.on_message(kClient, Msg{AbdKind::kQuery, 5}, dur);
  ASSERT_TRUE(query.has_value());
  EXPECT_EQ(query->kind, AbdKind::kQueryReply);
  EXPECT_EQ(query->op, 5u);
  EXPECT_EQ(query->ts, 7u);
  EXPECT_EQ(query->val, 70u);
  const Reply sync = rep.on_message(/*from=*/2, Msg{AbdKind::kSyncReq, 33},
                                    dur);
  ASSERT_TRUE(sync.has_value());
  EXPECT_EQ(sync->kind, AbdKind::kSyncReply);
  EXPECT_EQ(sync->op, 33u);  // the round tag comes back
  EXPECT_EQ(sync->ts, 7u);
  EXPECT_EQ(sync->val, 70u);
  // Replies, and kinds outside the protocol, get nothing back.
  log.clear();
  for (const std::uint8_t kind : {2, 4, 6, 7, 12}) {
    EXPECT_EQ(rep.on_message(2, Msg{static_cast<AbdKind>(kind), 1, 9, 90},
                             dur),
              std::nullopt)
        << "kind " << int{kind};
  }
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(rep.ts(), 7u);
}

TEST(AbdReplicaTest, NotServingIsSilent) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  dur.ts_ = 4;
  dur.val_ = 40;
  Replica rep(0, 1, 0);
  rep.rejoin(/*tag=*/1, dur);
  EXPECT_FALSE(rep.serving());
  EXPECT_EQ(rep.ts(), 4u);  // reloaded from stable storage
  EXPECT_EQ(rep.value(), 40u);
  for (const AbdKind kind :
       {AbdKind::kStore, AbdKind::kQuery, AbdKind::kSyncReq}) {
    EXPECT_EQ(rep.on_message(kClient, Msg{kind, 1, 9, 90}, dur), std::nullopt)
        << "kind " << static_cast<int>(kind);
  }
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(rep.ts(), 4u);
}

TEST(AbdReplicaTest, SyncReqCarriesTheRoundTag) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  dur.ts_ = 4;
  Replica rep(0, 1, 0);
  rep.rejoin(/*tag=*/12, dur);
  const Msg req = rep.sync_req();
  EXPECT_EQ(req.kind, AbdKind::kSyncReq);
  EXPECT_EQ(req.op, 12u);
  EXPECT_EQ(req.ts, 4u);
  EXPECT_EQ(req.val, 0u);
}

TEST(AbdReplicaTest, CompletingSyncReplyMakesTheReplicaServeAStaleOneDoesNot) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  Replica rep(/*self=*/0, /*f=*/1, 0);  // needs one peer
  rep.rejoin(/*tag=*/3, dur);
  EXPECT_FALSE(sync_reply(rep, dur, 1, /*tag=*/2, 8, 80));  // stale
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(rep.on_message(kClient, Msg{AbdKind::kQuery, 1}, dur),
            std::nullopt);
  EXPECT_TRUE(sync_reply(rep, dur, 1, 3, 8, 80));
  EXPECT_EQ(log, (std::vector<std::string>{"persist 8=80"}));
  const Reply state = rep.on_message(kClient, Msg{AbdKind::kQuery, 1}, dur);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->ts, 8u);
}

TEST(AbdReplicaTest, CatchUpCountsEachValidPeerOnceInTheCurrentRound) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  Replica rep(/*self=*/0, /*f=*/2, 0);  // peers 1..4, needs 2 of them
  rep.rejoin(/*tag=*/7, dur);
  EXPECT_FALSE(sync_reply(rep, dur, 1, /*tag=*/6, 8, 80));  // stale
  EXPECT_FALSE(sync_reply(rep, dur, 5, 7, 8, 80));   // not a replica
  EXPECT_FALSE(sync_reply(rep, dur, -1, 7, 8, 80));  // not a replica
  EXPECT_FALSE(sync_reply(rep, dur, 0, 7, 8, 80));   // itself
  EXPECT_TRUE(log.empty());  // none of them was adopted
  EXPECT_EQ(rep.ts(), 0u);
  EXPECT_FALSE(sync_reply(rep, dur, 1, 7, 3, 30));
  EXPECT_FALSE(sync_reply(rep, dur, 1, 7, 3, 30));  // same peer again
  EXPECT_TRUE(sync_reply(rep, dur, 2, 7, 2, 20));   // self + 2 peers
  EXPECT_EQ(rep.ts(), 3u);  // the newest state any peer reported
  EXPECT_EQ(dur.ts(), 3u);  // and it is stable
  // Once serving, further replies of the round change nothing.
  EXPECT_TRUE(sync_reply(rep, dur, 3, 7, 9, 90));
  EXPECT_EQ(rep.ts(), 3u);
}

TEST(AbdReplicaTest, ANewRoundForgetsThePeersOfTheLastOne) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  Replica rep(0, 2, 0);
  rep.rejoin(1, dur);
  EXPECT_FALSE(sync_reply(rep, dur, 1, 1, 0, 0));
  rep.rejoin(2, dur);
  EXPECT_FALSE(sync_reply(rep, dur, 2, 1, 0, 0));  // round 1 is stale
  EXPECT_FALSE(sync_reply(rep, dur, 1, 2, 0, 0));
  EXPECT_TRUE(sync_reply(rep, dur, 3, 2, 0, 0));
}

TEST(QuorumCollectorTest, KeepsTheFirstReplyPerReplicaOfThisPhase) {
  QuorumCollector<std::uint64_t> phase(/*f=*/2);
  const std::uint64_t old_op = phase.begin(AbdKind::kQuery);
  const std::uint64_t op = phase.begin(AbdKind::kQuery);
  EXPECT_NE(op, old_op);
  EXPECT_FALSE(phase.offer(0, old_op, 9, 90));  // another phase's reply
  EXPECT_FALSE(phase.offer(5, op, 9, 90));      // not a replica
  EXPECT_TRUE(phase.offer(0, op, 1, 10));
  EXPECT_TRUE(phase.offer(0, op, 9, 90));  // belongs, but only once
  EXPECT_TRUE(phase.offer(1, op, 1, 10));
  EXPECT_FALSE(phase.quorum());  // 2 distinct of the 3 needed
  EXPECT_TRUE(phase.offer(4, op, 1, 10));
  EXPECT_TRUE(phase.quorum());
  // The duplicate from replica 0 never counted: the quorum is uniform.
  EXPECT_FALSE(phase.read_choice().write_back);
}

TEST(QuorumCollectorTest, TakesOnlyThePhasesReplyKind) {
  QuorumCollector<std::uint64_t> phase(/*f=*/1);
  const std::uint64_t op = phase.begin(AbdKind::kQuery);
  // This phase's op id, but not a QUERY_REPLY: none of them counts.
  for (const AbdKind kind : {AbdKind::kStoreAck, AbdKind::kSyncReply,
                             AbdKind::kQuery, AbdKind::kStore}) {
    EXPECT_FALSE(phase.take(0, Msg{kind, op, 9, 90}))
        << "kind " << static_cast<int>(kind);
    EXPECT_FALSE(phase.take(1, Msg{kind, op, 9, 90}));
  }
  EXPECT_FALSE(phase.quorum());
  EXPECT_TRUE(phase.take(0, Msg{AbdKind::kQueryReply, op, 1, 10}));
  EXPECT_TRUE(phase.take(1, Msg{AbdKind::kQueryReply, op, 1, 10}));
  ASSERT_TRUE(phase.quorum());
  EXPECT_EQ(phase.read_choice().ts, 1u);  // the 9s never counted
  // A STORE phase takes STORE_ACKs, and a QUERY_REPLY no longer.
  const std::uint64_t store = phase.begin(AbdKind::kStore);
  EXPECT_FALSE(phase.take(2, Msg{AbdKind::kQueryReply, store, 1, 10}));
  EXPECT_TRUE(phase.take(2, Msg{AbdKind::kStoreAck, store, 1}));
  EXPECT_FALSE(phase.take(0, Msg{AbdKind::kStoreAck, op, 1}));  // old op
  EXPECT_FALSE(phase.quorum());
}

TEST(QuorumCollectorTest, NonUniformQuorumWritesBackTheMaximum) {
  QuorumCollector<std::uint64_t> phase(1);
  const std::uint64_t op = phase.begin(AbdKind::kQuery);
  phase.offer(2, op, 3, 30);
  phase.offer(0, op, 7, 70);
  ASSERT_TRUE(phase.quorum());
  const ReadChoice<std::uint64_t> choice = phase.read_choice();
  EXPECT_TRUE(choice.write_back);
  EXPECT_EQ(choice.ts, 7u);
  EXPECT_EQ(choice.val, 70u);
}

TEST(QuorumCollectorTest, UniformQuorumSkipsWriteBackAndFirstMaxWins) {
  QuorumCollector<std::uint64_t> phase(1);
  std::uint64_t op = phase.begin(AbdKind::kQuery);
  phase.offer(1, op, 4, 40);
  phase.offer(0, op, 4, 41);
  ReadChoice<std::uint64_t> choice = phase.read_choice();
  EXPECT_FALSE(choice.write_back);
  EXPECT_EQ(choice.val, 40u);
  // A new phase starts empty.
  op = phase.begin(AbdKind::kQuery);
  EXPECT_FALSE(phase.quorum());
  phase.offer(1, op, 2, 20);
  phase.offer(2, op, 6, 60);
  phase.offer(0, op, 6, 61);
  choice = phase.read_choice();
  EXPECT_TRUE(choice.write_back);
  EXPECT_EQ(choice.val, 60u);
}

// A link whose replicas are a script. It logs every broadcast and every
// wait; a wait's first receive step runs the next scripted step, which
// may hand replies to the phase, and its second reports the budget
// spent. Waits alternate: an attempt's wait (budget 10), then a backoff
// window.
using Phase = QuorumCollector<std::uint64_t>;
using Step = std::function<void(Phase&, const Msg& request)>;

struct ScriptLink {
  std::vector<std::string>* log;
  std::deque<Step>* steps;
  Msg request;  // the last broadcast

  struct Wait {
    explicit Wait(std::uint64_t b) : budget(b) {}
    std::uint64_t budget;
    bool stepped = false;
  };

  void broadcast(Phase& /*phase*/, const Msg& m) {
    request = m;
    log->push_back((m.kind == AbdKind::kStore
                        ? "store " + std::to_string(m.ts) + " "
                        : std::string("query ")) +
                   "op=" + std::to_string(m.op));
  }
  bool receive(Wait& wait, Phase& phase) {
    if (wait.stepped) return false;
    wait.stepped = true;
    log->push_back("wait " + std::to_string(wait.budget));
    if (!steps->empty()) {
      steps->front()(phase, request);
      steps->pop_front();
    }
    return true;
  }
};

static_assert(AbdLink<ScriptLink, std::uint64_t>);

constexpr RetryBudget kBudget{/*max_attempts=*/4, /*attempt=*/10,
                              /*backoff_base=*/2, /*backoff_cap=*/32};
constexpr std::uint64_t kSeed = 77;
constexpr int kNode = 5;

struct ScriptedClient {
  std::vector<std::string> log;
  std::deque<Step> steps;
  ClientStats stats;
  AbdClient<std::uint64_t, ScriptLink> client{
      /*f=*/1, kNode, kBudget, kSeed, stats, ScriptLink{&log, &steps, {}}};
};

// Replica `replica`'s answer to the last request: (ts, val) for a
// QUERY, an ack for a STORE.
Step reply(int replica, std::uint64_t ts, std::uint64_t val) {
  return [=](Phase& phase, const Msg& request) {
    phase.take(replica, Msg{reply_kind(request.kind), request.op, ts, val});
  };
}

// Replies from every listed replica in one step.
Step replies(std::vector<int> replicas, std::uint64_t ts, std::uint64_t val) {
  return [=](Phase& phase, const Msg& request) {
    for (const int r : replicas) reply(r, ts, val)(phase, request);
  };
}

const Step kSilence = [](Phase&, const Msg&) {};

TEST(AbdClientTest, UnavailableAfterExactlyMaxAttemptsOneDrawPerBackoff) {
  ScriptedClient c;
  EXPECT_EQ(c.client.read(), std::nullopt);
  // The windows a fresh jitter stream gives with one draw per backoff.
  Rng replay(kSeed ^ (static_cast<std::uint64_t>(kNode) * 0x9e3779b9ull));
  std::vector<std::string> want;
  for (unsigned attempt = 0; attempt < kBudget.max_attempts; ++attempt) {
    want.push_back("query op=1");
    want.push_back("wait 10");
    if (attempt + 1 < kBudget.max_attempts) {
      want.push_back("wait " + std::to_string(backoff_window(
                                   2, 32, attempt, replay)));
    }
  }
  EXPECT_EQ(c.log, want);
  EXPECT_EQ(c.stats.phases, 1u);
  EXPECT_EQ(c.stats.retries, kBudget.max_attempts - 1);
  EXPECT_EQ(c.stats.unavailable, 1u);
  EXPECT_EQ(c.stats.reads, 1u);
}

TEST(AbdClientTest, LateReplyToAnEarlierAttemptStillCounts) {
  ScriptedClient c;
  // Attempt 1 hears replica 0 only; attempt 2 re-broadcasts under the
  // same op id, and replica 1's reply completes the quorum with it.
  c.steps = {reply(0, 3, 30), kSilence, reply(1, 3, 30)};
  const std::optional<Stamped<std::uint64_t>> got = c.client.read();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 3u);
  EXPECT_EQ(got->val, 30u);
  ASSERT_EQ(c.log.size(), 5u);
  EXPECT_EQ(c.log[0], "query op=1");
  EXPECT_EQ(c.log[3], "query op=1");
  EXPECT_EQ(c.stats.retries, 1u);
  EXPECT_EQ(c.stats.unavailable, 0u);
}

TEST(AbdClientTest, AReplyOfTheWrongKindIsNotCounted) {
  ScriptedClient c;
  // Two STORE_ACKs that carry the query's op id would make a quorum if
  // they counted; the third step's QUERY_REPLYs do.
  const Step acks = [](Phase& phase, const Msg& request) {
    EXPECT_FALSE(phase.take(0, Msg{AbdKind::kStoreAck, request.op, 8}));
    EXPECT_FALSE(phase.take(1, Msg{AbdKind::kStoreAck, request.op, 8}));
  };
  c.steps = {acks, kSilence, replies({1, 2}, 3, 30)};
  const std::optional<Stamped<std::uint64_t>> got = c.client.read();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 3u);
  EXPECT_EQ(got->val, 30u);
  EXPECT_EQ(c.stats.retries, 1u);
  EXPECT_EQ(c.stats.writeback_skips, 1u);  // only the two 3s counted
}

TEST(AbdClientTest, UniformQuorumSkipsTheWriteBack) {
  ScriptedClient c;
  c.steps = {replies({2, 0}, 5, 50)};
  const std::optional<Stamped<std::uint64_t>> got = c.client.read();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 5u);
  EXPECT_EQ(got->val, 50u);
  EXPECT_EQ(c.log, (std::vector<std::string>{"query op=1", "wait 10"}));
  EXPECT_EQ(c.stats.writeback_skips, 1u);
  EXPECT_EQ(c.stats.writebacks, 0u);
  EXPECT_EQ(c.stats.phases, 1u);
}

TEST(AbdClientTest, DisagreeingQuorumWritesTheMaximumBack) {
  ScriptedClient c;
  c.steps = {[](Phase& phase, const Msg& request) {
               reply(0, 3, 30)(phase, request);
               reply(1, 5, 50)(phase, request);
             },
             replies({1, 2}, 5, 0)};
  const std::optional<Stamped<std::uint64_t>> got = c.client.read();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 5u);
  EXPECT_EQ(got->val, 50u);
  EXPECT_EQ(c.log, (std::vector<std::string>{"query op=1", "wait 10",
                                             "store 5 op=2", "wait 10"}));
  EXPECT_EQ(c.stats.writebacks, 1u);
  EXPECT_EQ(c.stats.phases, 2u);
}

TEST(AbdClientTest, FailedWriteBackMakesTheReadUnavailable) {
  ScriptedClient c;
  c.steps = {[](Phase& phase, const Msg& request) {
    reply(0, 3, 30)(phase, request);
    reply(1, 5, 50)(phase, request);
  }};  // then no replica acknowledges the write-back
  EXPECT_EQ(c.client.read(), std::nullopt);
  EXPECT_EQ(c.log[2], "store 5 op=2");
  EXPECT_EQ(c.stats.writebacks, 0u);
  EXPECT_EQ(c.stats.unavailable, 1u);
  EXPECT_EQ(c.stats.phases, 2u);
}

TEST(AbdClientTest, WriteStoresTheCallersTimestamp) {
  ScriptedClient c;
  EXPECT_FALSE(c.client.write(9, 90));
  EXPECT_EQ(c.log.front(), "store 9 op=1");
  c.steps = {reply(0, 10, 0), reply(1, 10, 0)};
  EXPECT_TRUE(c.client.write(10, 100));
  EXPECT_EQ(c.stats.writes, 2u);
  EXPECT_EQ(c.stats.unavailable, 1u);
}

TEST(AbdWriterTest, AWriterStartedAtZeroHandsOutOneTwoThree) {
  ScriptedClient c;
  c.client.start_at(0);
  for (std::uint64_t ts = 1; ts <= 3; ++ts) {
    c.steps.push_back(replies({0, 1}, ts, 0));
    const WriteResult w = c.client.write_next(ts * 10);
    EXPECT_EQ(w.ts, ts);
    EXPECT_TRUE(w.ok);
  }
  EXPECT_EQ(c.log, (std::vector<std::string>{"store 1 op=1", "wait 10",
                                             "store 2 op=2", "wait 10",
                                             "store 3 op=3", "wait 10"}));
  EXPECT_EQ(c.stats.reads, 0u);  // a started writer never seeds
}

TEST(AbdWriterTest, AFailedWriteStillUsesItsTimestamp) {
  ScriptedClient c;
  c.client.start_at(0);
  const WriteResult lost = c.client.write_next(10);  // nobody acks
  EXPECT_EQ(lost.ts, 1u);
  EXPECT_FALSE(lost.ok);
  c.steps = {replies({0, 1}, 2, 0)};
  const WriteResult next = c.client.write_next(20);
  EXPECT_EQ(next.ts, 2u);  // ts 1 may still take effect: never reused
  EXPECT_TRUE(next.ok);
}

TEST(AbdWriterTest, AnUnseededWriterHandsOutNothingUntilItsSeedingRead) {
  ScriptedClient c;
  // Every replica is silent: the seeding read is Unavailable.
  const WriteResult none = c.client.write_next(10);
  EXPECT_EQ(none.ts, 0u);
  EXPECT_FALSE(none.ok);
  EXPECT_EQ(c.stats.writes, 0u);
  for (const std::string& line : c.log) {
    EXPECT_EQ(line.rfind("store", 0), std::string::npos) << line;
  }
  // The next write seeds from a fresh register and uses ts 1: the
  // failed seed used up no timestamp.
  c.log.clear();
  c.steps = {replies({0, 1}, 0, 0), replies({0, 2}, 1, 0)};
  const WriteResult first = c.client.write_next(20);
  EXPECT_EQ(first.ts, 1u);
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(c.log, (std::vector<std::string>{"query op=2", "wait 10",
                                             "store 1 op=3", "wait 10"}));
}

TEST(AbdWriterTest, ASeedingReadStartsOnePastTheQuorumsMaximum) {
  ScriptedClient c;
  c.steps = {[](Phase& phase, const Msg& request) {
               reply(0, 4, 40)(phase, request);
               reply(2, 7, 70)(phase, request);
             },
             replies({0, 2}, 7, 0),  // the read's write-back of ts 7
             replies({1, 2}, 8, 0)};
  const WriteResult w = c.client.write_next(80);
  EXPECT_EQ(w.ts, 8u);
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(c.log, (std::vector<std::string>{"query op=1", "wait 10",
                                             "store 7 op=2", "wait 10",
                                             "store 8 op=3", "wait 10"}));
  EXPECT_EQ(c.client.write_next(90).ts, 9u);  // seeded once, then counts
}

// Three replicas behind a link that delivers each request only to the
// replicas in `reach`, at once, and queues their replies for the
// client's receive steps.
struct Fleet {
  std::vector<std::string> log;  // the stable storage's persists
  std::vector<LogDurable> durable{LogDurable{&log}, LogDurable{&log},
                                  LogDurable{&log}};
  std::vector<Replica> replicas{Replica(0, 1, 0), Replica(1, 1, 0),
                                Replica(2, 1, 0)};
  std::vector<int> reach;
};

struct RouteLink {
  Fleet* fleet;
  std::deque<std::pair<int, Msg>> inbox;

  struct Wait {
    explicit Wait(std::uint64_t /*budget*/) {}
  };

  void broadcast(Phase& /*phase*/, const Msg& request) {
    for (const int r : fleet->reach) {
      const auto ri = static_cast<std::size_t>(r);
      const Reply got =
          fleet->replicas[ri].on_message(kClient, request, fleet->durable[ri]);
      if (got) inbox.emplace_back(r, *got);
    }
  }
  bool receive(Wait& /*wait*/, Phase& phase) {
    if (inbox.empty()) return false;
    phase.take(inbox.front().first, inbox.front().second);
    inbox.pop_front();
    return true;
  }
};

static_assert(AbdLink<RouteLink, std::uint64_t>);

// ROADMAP item 1, gap (b), pinned on the writer the server runs. This is
// the known gap that item 1's fence must flip: once a restarted writer
// cannot reuse a timestamp, the last two assertions must fail, and this
// test is restated to expect one value per timestamp.
//
// Incarnation 1 started at ts 0 (a fresh fleet). Its STORE of ts 1
// reaches replica 0 only, so the write ends Unavailable: replica 0
// keeps (1, 10). Incarnation 2 seeds from a read quorum of replicas 1
// and 2, which still hold ts 0, and writes another value under ts 1.
TEST(AbdWriterTest, KnownGapARestartedWriterReusesAMinorityTimestamp) {
  Fleet fleet;
  ClientStats stats;
  fleet.reach = {0};
  AbdClient<std::uint64_t, RouteLink> first(1, kNode, kBudget, kSeed, stats,
                                            RouteLink{&fleet, {}});
  first.start_at(0);
  const WriteResult lost = first.write_next(10);
  EXPECT_EQ(lost.ts, 1u);
  EXPECT_FALSE(lost.ok);

  fleet.reach = {1, 2};
  AbdClient<std::uint64_t, RouteLink> second(1, kNode, kBudget, kSeed, stats,
                                             RouteLink{&fleet, {}});
  const WriteResult w = second.write_next(20);
  EXPECT_TRUE(w.ok);

  // Two values under one timestamp: a read that hears replicas 0 and 1
  // sees ts 1 on both, skips the write-back, and returns whichever
  // replied first.
  EXPECT_EQ(w.ts, 1u);
  EXPECT_EQ(fleet.replicas[0].ts(), fleet.replicas[1].ts());
  EXPECT_NE(fleet.replicas[0].value(), fleet.replicas[1].value());
}

TEST(AbdBoundsDeathTest, FOutsideOneTo31IsRejected) {
  EXPECT_DEATH(Replica(0, 32, 0), "1 <= f <= 31");
  EXPECT_DEATH(Replica(0, 0, 0), "1 <= f <= 31");
  EXPECT_DEATH(QuorumCollector<std::uint64_t>(32), "1 <= f <= 31");
  EXPECT_DEATH(Replica(3, 1, 0), "out of range");
  Replica widest(62, kMaxF, 0);  // the largest id fits the mask
  EXPECT_TRUE(widest.serving());
}

}  // namespace
}  // namespace compreg::net
