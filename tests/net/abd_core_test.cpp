// The sans-IO ABD core (net/abd_core.h) on its own: the replica's
// dispatch against a fake stable storage that logs every call, the
// quorum collector and the read rule, the client's retry loop and read
// sequence over a scripted link, and the bounds on f. Both the SimNet
// register and the socket register run exactly this code.
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
  const std::uint64_t old_op = phase.begin();
  const std::uint64_t op = phase.begin();
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

TEST(QuorumCollectorTest, NonUniformQuorumWritesBackTheMaximum) {
  QuorumCollector<std::uint64_t> phase(1);
  const std::uint64_t op = phase.begin();
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
  std::uint64_t op = phase.begin();
  phase.offer(1, op, 4, 40);
  phase.offer(0, op, 4, 41);
  ReadChoice<std::uint64_t> choice = phase.read_choice();
  EXPECT_FALSE(choice.write_back);
  EXPECT_EQ(choice.val, 40u);
  // A new phase starts empty.
  op = phase.begin();
  EXPECT_FALSE(phase.quorum());
  phase.offer(1, op, 2, 20);
  phase.offer(2, op, 6, 60);
  phase.offer(0, op, 6, 61);
  choice = phase.read_choice();
  EXPECT_TRUE(choice.write_back);
  EXPECT_EQ(choice.val, 60u);
}

// A link whose replicas are a script. It logs every call; each await
// runs the next scripted step, which may offer replies, and then
// reports the quorum. Awaits alternate: an attempt's wait (budget 10),
// then a backoff window.
using Phase = QuorumCollector<std::uint64_t>;
using Step = std::function<void(Phase&, std::uint64_t op)>;

struct ScriptLink {
  std::vector<std::string>* log;
  std::deque<Step>* steps;
  std::uint64_t op = 0;  // of the last broadcast

  void broadcast(Phase& /*phase*/, const Msg& request) {
    op = request.op;
    log->push_back((request.kind == AbdKind::kStore
                        ? "store " + std::to_string(request.ts) + " "
                        : std::string("query ")) +
                   "op=" + std::to_string(op));
  }
  bool await(Phase& phase, std::uint64_t budget) {
    log->push_back("wait " + std::to_string(budget));
    if (!steps->empty()) {
      steps->front()(phase, op);
      steps->pop_front();
    }
    return phase.quorum();
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
      /*f=*/1, kNode, kBudget, kSeed, stats, ScriptLink{&log, &steps}};
};

Step reply(int replica, std::uint64_t ts, std::uint64_t val) {
  return [=](Phase& phase, std::uint64_t op) {
    phase.offer(replica, op, ts, val);
  };
}

const Step kSilence = [](Phase&, std::uint64_t) {};

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

TEST(AbdClientTest, UniformQuorumSkipsTheWriteBack) {
  ScriptedClient c;
  c.steps = {[](Phase& phase, std::uint64_t op) {
    phase.offer(2, op, 5, 50);
    phase.offer(0, op, 5, 50);
  }};
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
  c.steps = {[](Phase& phase, std::uint64_t op) {
               phase.offer(0, op, 3, 30);
               phase.offer(1, op, 5, 50);
             },
             [](Phase& phase, std::uint64_t op) {
               phase.offer(1, op, 5, 0);
               phase.offer(2, op, 5, 0);
             }};
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
  c.steps = {[](Phase& phase, std::uint64_t op) {
    phase.offer(0, op, 3, 30);
    phase.offer(1, op, 5, 50);
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
