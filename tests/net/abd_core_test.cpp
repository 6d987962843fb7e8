// The sans-IO ABD core (net/abd_core.h) on its own: the replica
// handlers against a fake stable storage that logs every call, the
// quorum collector and the read rule, and the bounds on f. Both the
// SimNet register and the socket register run exactly this code.
#include "net/abd_core.h"

#include <gtest/gtest.h>

#include <cstdint>
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

// Drives one STORE the way a transport does: the ack goes out (here:
// into the log) only once on_store has returned it.
void store(Replica& rep, LogDurable& dur, std::uint64_t ts,
           std::uint64_t val) {
  if (const auto acked = rep.on_store(ts, val, dur)) {
    dur.log->push_back("ack " + std::to_string(*acked));
  }
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
  const auto state = rep.on_query();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->ts, 5u);
  EXPECT_EQ(state->val, 50u);
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
  EXPECT_EQ(rep.on_store(9, 90, dur), std::nullopt);  // STORE
  EXPECT_EQ(rep.on_query(), std::nullopt);  // QUERY and SYNC_REQ
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(rep.ts(), 4u);
}

TEST(AbdReplicaTest, CatchUpCountsEachValidPeerOnceInTheCurrentRound) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  Replica rep(/*self=*/0, /*f=*/2, 0);  // peers 1..4, needs 2 of them
  rep.rejoin(/*tag=*/7, dur);
  EXPECT_FALSE(rep.on_sync_reply(1, /*tag=*/6, 8, 80, dur));  // stale
  EXPECT_FALSE(rep.on_sync_reply(5, 7, 8, 80, dur));   // not a replica
  EXPECT_FALSE(rep.on_sync_reply(-1, 7, 8, 80, dur));  // not a replica
  EXPECT_FALSE(rep.on_sync_reply(0, 7, 8, 80, dur));   // itself
  EXPECT_TRUE(log.empty());  // none of them was adopted
  EXPECT_EQ(rep.ts(), 0u);
  EXPECT_FALSE(rep.on_sync_reply(1, 7, 3, 30, dur));
  EXPECT_FALSE(rep.on_sync_reply(1, 7, 3, 30, dur));  // same peer again
  EXPECT_FALSE(rep.serving());
  EXPECT_TRUE(rep.on_sync_reply(2, 7, 2, 20, dur));  // self + 2 peers
  EXPECT_TRUE(rep.serving());
  EXPECT_EQ(rep.ts(), 3u);  // the newest state any peer reported
  EXPECT_EQ(dur.ts(), 3u);  // and it is stable
  // Once serving, further replies of the round change nothing.
  EXPECT_FALSE(rep.on_sync_reply(3, 7, 9, 90, dur));
  EXPECT_EQ(rep.ts(), 3u);
}

TEST(AbdReplicaTest, ANewRoundForgetsThePeersOfTheLastOne) {
  std::vector<std::string> log;
  LogDurable dur{&log};
  Replica rep(0, 2, 0);
  rep.rejoin(1, dur);
  EXPECT_FALSE(rep.on_sync_reply(1, 1, 0, 0, dur));
  rep.rejoin(2, dur);
  EXPECT_FALSE(rep.on_sync_reply(2, 1, 0, 0, dur));  // round 1 is stale
  EXPECT_FALSE(rep.on_sync_reply(1, 2, 0, 0, dur));
  EXPECT_TRUE(rep.on_sync_reply(3, 2, 0, 0, dur));
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
