// SimNet transport semantics: delivery ordering, the fault injectors
// (drop/delay/dup/partition/replica-crash), reply atomicity, and
// determinism. Single-threaded here — outside the simulator the
// schedule points are no-ops and SimNet is a plain event queue.
#include "net/sim_net.h"

#include <gtest/gtest.h>

#include <vector>

namespace compreg::net {
namespace {

NetFaultPlan plan_of(const std::string& text) {
  auto plan = NetFaultPlan::parse(text);
  EXPECT_TRUE(plan.has_value()) << text;
  return plan.value_or(NetFaultPlan{});
}

TEST(SimNetTest, DeliversOnNextPoll) {
  SimNet net(3, NetFaultPlan{}, 1);
  const int client = net.new_client_node();
  EXPECT_EQ(client, 3);  // client ids start past the replica range
  int delivered = 0;
  net.send(client, 0, [&] { ++delivered; });
  EXPECT_EQ(delivered, 0);  // send only enqueues
  net.poll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().sent, 1u);
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_EQ(net.now(), 1u);
  EXPECT_EQ(net.processed(0), 1u);
}

TEST(SimNetTest, FifoAmongSameStepMessages) {
  SimNet net(2, NetFaultPlan{}, 1);
  const int client = net.new_client_node();
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    net.send(client, 0, [&order, i] { order.push_back(i); });
  }
  net.poll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimNetTest, RepliesFromDeliveryArriveNextStep) {
  // A reply enqueued inside a delivery closure is part of the same
  // network step (no nested delivery) and arrives on the next poll.
  SimNet net(2, NetFaultPlan{}, 1);
  const int client = net.new_client_node();
  bool request_seen = false;
  bool reply_seen = false;
  net.send(client, 0, [&] {
    request_seen = true;
    net.send(0, client, [&] { reply_seen = true; });
  });
  net.poll();
  EXPECT_TRUE(request_seen);
  EXPECT_FALSE(reply_seen);  // reply rides the next step, not this one
  net.poll();
  EXPECT_TRUE(reply_seen);
}

TEST(SimNetTest, FullLossDropsEverything) {
  SimNet net(3, plan_of("drop:1000"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  for (int i = 0; i < 20; ++i) net.send(client, 0, [&] { ++delivered; });
  for (int i = 0; i < 5; ++i) net.poll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped_loss, 20u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(SimNetTest, DupDeliversTwice) {
  SimNet net(2, plan_of("dup:1000"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  net.send(client, 0, [&] { ++delivered; });
  for (int i = 0; i < 6; ++i) net.poll();  // copy lands 1-2 steps later
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().duplicated, 1u);
}

TEST(SimNetTest, DelayPostponesDelivery) {
  SimNet net(2, plan_of("delay:1000+3"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  net.send(client, 0, [&] { ++delivered; });
  net.poll();
  EXPECT_EQ(delivered, 0);  // base delivery step + at least one extra
  for (int i = 0; i < 4; ++i) net.poll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().delayed, 1u);
}

TEST(SimNetTest, PartitionBlocksCrossTrafficOnly) {
  // Group {0} isolated for steps [0, 100): client <-> 0 dies, client
  // <-> 1 flows, and 0 <-> 0 (inside the group) would still flow.
  SimNet net(2, plan_of("partition:0+100@0"), 7);
  const int client = net.new_client_node();
  int to_isolated = 0;
  int to_healthy = 0;
  net.send(client, 0, [&] { ++to_isolated; });
  net.send(client, 1, [&] { ++to_healthy; });
  net.poll();
  EXPECT_EQ(to_isolated, 0);
  EXPECT_EQ(to_healthy, 1);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
}

TEST(SimNetTest, PartitionHeals) {
  // Window [0, 3): a message delivered at step 4 crosses freely.
  SimNet net(2, plan_of("partition:0+3@0"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  net.poll();
  net.poll();
  net.poll();  // now = 3, window over
  net.send(client, 0, [&] { ++delivered; });
  net.poll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().dropped_partition, 0u);
}

TEST(SimNetTest, ReplicaCrashAfterBudget) {
  // Node 0 processes exactly 2 messages, then every delivery is eaten.
  SimNet net(2, plan_of("crash:0@2"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  for (int i = 0; i < 5; ++i) net.send(client, 0, [&] { ++delivered; });
  net.poll();
  EXPECT_EQ(delivered, 2);
  EXPECT_TRUE(net.replica_crashed(0));
  EXPECT_FALSE(net.replica_crashed(1));
  EXPECT_EQ(net.stats().dropped_crash, 3u);
  // Still dead later.
  net.send(client, 0, [&] { ++delivered; });
  net.poll();
  EXPECT_EQ(delivered, 2);
}

TEST(SimNetTest, CrashFromTheStart) {
  SimNet net(2, plan_of("crash:1@0"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  net.send(client, 1, [&] { ++delivered; });
  net.poll();
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(net.replica_crashed(1));
}

TEST(SimNetTest, OutOfRangeCrashSpecIsNoOp) {
  SimNet net(2, plan_of("crash:9@0"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  net.send(client, 0, [&] { ++delivered; });
  net.poll();
  EXPECT_EQ(delivered, 1);
}

TEST(SimNetTest, RecoveryCycleDownThenRejoin) {
  // Node 0 processes 2 messages, goes down for 3 steps eating traffic,
  // then rejoins and delivers again.
  SimNet net(2, plan_of("recover:0@2+3"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  for (int i = 0; i < 5; ++i) net.send(client, 0, [&] { ++delivered; });
  net.poll();  // now = 1: 2 delivered, then the crash trigger fires
  EXPECT_EQ(delivered, 2);
  EXPECT_TRUE(net.replica_down(0));
  EXPECT_EQ(net.stats().dropped_down, 3u);
  // Down for the whole window: messages sent meanwhile are eaten too.
  net.send(client, 0, [&] { ++delivered; });
  net.poll();  // now = 2
  net.poll();  // now = 3
  EXPECT_EQ(delivered, 2);
  EXPECT_TRUE(net.replica_down(0));
  EXPECT_EQ(net.stats().dropped_down, 4u);
  // up_at = 1 + 3 = 4: the poll that moves now to 4 rejoins first,
  // then delivers.
  net.send(client, 0, [&] { ++delivered; });
  net.poll();  // now = 4
  EXPECT_FALSE(net.replica_down(0));
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(net.stats().replica_recoveries, 1u);
}

TEST(SimNetTest, RecoveryHookFiresOnRejoin) {
  SimNet net(2, plan_of("recover:1@0+2"), 7);
  const int client = net.new_client_node();
  std::vector<int> rejoined;
  const std::uint64_t token =
      net.add_recover_hook([&](int node) { rejoined.push_back(node); });
  net.send(client, 1, [] {});
  net.poll();  // trigger fires before processing: node 1 down from msg 0
  EXPECT_TRUE(net.replica_down(1));
  EXPECT_TRUE(rejoined.empty());
  net.poll();
  net.poll();  // now = 3 >= up_at = 3
  EXPECT_FALSE(net.replica_down(1));
  EXPECT_EQ(rejoined, (std::vector<int>{1}));
  // A removed hook no longer fires on later cycles.
  net.remove_recover_hook(token);
}

TEST(SimNetTest, RepeatedRecoveryCyclesResetBudget) {
  // Two cycles: after_msgs counts messages since the last (re)start,
  // so the second cycle needs 1 fresh post-rejoin delivery to trigger.
  SimNet net(2, plan_of("recover:0@1+1,recover:0@1+2"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  const auto send_one = [&] { net.send(client, 0, [&] { ++delivered; }); };
  send_one();
  send_one();
  net.poll();  // 1 delivered, cycle 1 trips, second msg eaten
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(net.replica_down(0));
  net.poll();  // now = 2 >= up_at = 2: rejoin
  EXPECT_FALSE(net.replica_down(0));
  EXPECT_EQ(net.stats().replica_recoveries, 1u);
  send_one();
  send_one();
  net.poll();  // 1 fresh delivery, cycle 2 trips
  EXPECT_EQ(delivered, 2);
  EXPECT_TRUE(net.replica_down(0));
  net.poll();
  net.poll();  // downtime 2 over
  EXPECT_FALSE(net.replica_down(0));
  EXPECT_EQ(net.stats().replica_recoveries, 2u);
  // Out of cycles: node stays up from here on.
  send_one();
  net.poll();
  EXPECT_EQ(delivered, 3);
  EXPECT_FALSE(net.replica_down(0));
}

TEST(SimNetTest, OutOfRangeRecoverSpecIsNoOp) {
  SimNet net(2, plan_of("recover:9@0+5"), 7);
  const int client = net.new_client_node();
  int delivered = 0;
  net.send(client, 0, [&] { ++delivered; });
  net.poll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().replica_recoveries, 0u);
}

TEST(SimNetTest, PendingCountsQueuedMessages) {
  SimNet net(2, NetFaultPlan{}, 7);
  const int client = net.new_client_node();
  EXPECT_EQ(net.pending(), 0u);
  net.send(client, 0, [] {});
  net.send(client, 1, [] {});
  EXPECT_EQ(net.pending(), 2u);
  net.poll();
  EXPECT_EQ(net.pending(), 0u);
}

TEST(SimNetTest, RecoveryDeterministicAcrossRuns) {
  const auto run = [] {
    SimNet net(3, plan_of("drop:200,recover:0@3+4,recover:1@5+2"), 99);
    const int client = net.new_client_node();
    int delivered = 0;
    for (int i = 0; i < 60; ++i) net.send(client, i % 3, [&] { ++delivered; });
    for (int i = 0; i < 25; ++i) net.poll();
    return std::make_tuple(delivered, net.stats().dropped_loss,
                           net.stats().dropped_down,
                           net.stats().replica_recoveries);
  };
  // Golden, not just run() == run(): a change that reorders one of the
  // net's draws fails here before any certificate or E14 diff does.
  EXPECT_EQ(run(), std::make_tuple(27, 5u, 28u, 2u));
  EXPECT_EQ(run(), run());
}

TEST(SimNetTest, DeterministicAcrossRuns) {
  // Same (plan, seed, send sequence) => identical fault decisions.
  const auto run = [] {
    SimNet net(3, plan_of("drop:300,delay:400+4,dup:200,reorder:200"), 99);
    const int client = net.new_client_node();
    int delivered = 0;
    for (int i = 0; i < 50; ++i) net.send(client, i % 3, [&] { ++delivered; });
    for (int i = 0; i < 20; ++i) net.poll();
    return std::make_tuple(delivered, net.stats().dropped_loss,
                           net.stats().delayed, net.stats().duplicated,
                           net.stats().reordered);
  };
  // Golden: the draw order (drop, delay, reorder, dup) is pinned here.
  EXPECT_EQ(run(), std::make_tuple(45, 10u, 12u, 5u, 6u));
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace compreg::net
