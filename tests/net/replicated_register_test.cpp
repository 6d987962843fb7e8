// ReplicatedRegister (ABD over SimNet): sequential correctness, the
// client robustness layer (retry under loss, bounded degradation to
// Unavailable, crash tolerance up to f, idempotence under duplication),
// and its conformance to the cell concepts under the NetCell name.
#include "net/replicated_register.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "registers/register_concepts.h"
#include "sched/schedule_point.h"
#include "util/rng.h"

namespace compreg::net {
namespace {

// The register satisfies the construction's concept surface, so it
// drops straight under CompositeRegister as NetCell.
static_assert(registers::MrswCell<NetCell<std::uint64_t>, std::uint64_t>);
static_assert(
    registers::FallibleMrswCell<NetCell<std::uint64_t>, std::uint64_t>);

NetFaultPlan plan_of(const std::string& text) {
  auto plan = NetFaultPlan::parse(text);
  EXPECT_TRUE(plan.has_value()) << text;
  return plan.value_or(NetFaultPlan{});
}

NetConfig config_f(int f) {
  NetConfig cfg;
  cfg.f = f;
  return cfg;
}

TEST(ReplicatedRegisterTest, InitialValueReadable) {
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), NetFaultPlan{}, 1);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/2, 42);
  EXPECT_EQ(reg.read(0), 42u);
  EXPECT_EQ(reg.read(1), 42u);
}

TEST(ReplicatedRegisterTest, SequentialWriteRead) {
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), NetFaultPlan{}, 1);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/2, 0);
  for (std::uint64_t v = 1; v <= 10; ++v) {
    reg.write(v);
    EXPECT_EQ(reg.read(0), v);
    EXPECT_EQ(reg.read(static_cast<int>(v) % 2), v);
  }
  // On a clean network every replica converges to the last write.
  for (int r = 0; r < cfg.replicas(); ++r) {
    EXPECT_EQ(reg.replica_ts(r), 10u);
    EXPECT_EQ(reg.replica_val(r), 10u);
  }
}

TEST(ReplicatedRegisterTest, UniformQuorumSkipsWriteBack) {
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), NetFaultPlan{}, 1);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  reg.write(5);
  EXPECT_EQ(reg.read(0), 5u);
  // Clean network: the read quorum agrees, phase 2 is provably a no-op.
  EXPECT_GE(net.stats().client.writeback_skips, 1u);
  EXPECT_EQ(net.stats().client.writebacks, 0u);
}

TEST(ReplicatedRegisterTest, ReadWritesBackAMinorityWrite) {
  // Replicas 1 and 2 are cut off while the writer runs, so write(5)
  // lands on replica 0 alone and degrades to Unavailable. Once the
  // partition heals, a read's quorum holds ts 1 next to ts 0. That is
  // not uniform, so the read writes (1, 5) back before returning it.
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), plan_of("partition:0+400@1.2"), 1);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  EXPECT_FALSE(reg.try_write(5));
  EXPECT_EQ(reg.replica_ts(0), 1u);
  EXPECT_EQ(reg.replica_ts(1), 0u);
  while (net.now() < 400) net.poll();
  EXPECT_EQ(reg.read(0), 5u);
  EXPECT_GE(net.stats().client.writebacks, 1u);
  EXPECT_EQ(net.stats().client.writeback_skips, 0u);
  EXPECT_GE(reg.replica_ts(1) + reg.replica_ts(2), 1u);
}

TEST(ReplicatedRegisterTest, RetriesThroughHeavyLoss) {
  // 40% loss: individual attempts fail but the retry budget absorbs it.
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), plan_of("drop:400"), 7);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  for (std::uint64_t v = 1; v <= 25; ++v) {
    reg.write(v);
    EXPECT_EQ(reg.read(0), v);
  }
  EXPECT_GT(net.stats().dropped_loss, 0u);
  EXPECT_EQ(net.stats().client.unavailable, 0u);
}

TEST(ReplicatedRegisterTest, ToleratesFCrashes) {
  // f = 1: one dead replica out of three never blocks a quorum.
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), plan_of("crash:2@0"), 7);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  for (std::uint64_t v = 1; v <= 10; ++v) {
    reg.write(v);
    EXPECT_EQ(reg.read(0), v);
  }
  EXPECT_EQ(net.stats().client.unavailable, 0u);
  EXPECT_EQ(reg.replica_ts(2), 0u);  // the corpse never adopted anything
}

TEST(ReplicatedRegisterTest, TotalLossDegradesToUnavailableBounded) {
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), plan_of("drop:1000"), 7);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 9);
  EXPECT_FALSE(reg.try_write(1));
  EXPECT_EQ(reg.try_read(0), std::nullopt);
  EXPECT_EQ(net.stats().client.unavailable, 2u);
  // Bounded: max_attempts timeouts plus capped backoff windows, per op.
  const std::uint64_t per_phase =
      kMaxAttempts * kAttemptPolls +
      (kMaxAttempts - 1) * (kBackoffCapPolls + kBackoffCapPolls / 2 + 1);
  EXPECT_LE(net.stats().polls, 2 * per_phase);
}

TEST(ReplicatedRegisterTest, QuorumLossThrowsUnavailable) {
  // f+1 = 2 dead replicas: no quorum, the MrswCell surface throws.
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), plan_of("crash:0@0,crash:1@0"), 7);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  bool threw = false;
  try {
    reg.write(1);
  } catch (const UnavailableError& e) {
    threw = true;
    EXPECT_STREQ(e.op, "write");
  }
  EXPECT_TRUE(threw);
  // UnavailableError is a ProcessParked: the simulator's crash-stop
  // machinery absorbs it, which is the graceful-degradation contract.
  try {
    reg.read(0);
    FAIL() << "read should not reach a quorum";
  } catch (const sched::ProcessParked&) {
  }
}

TEST(ReplicatedRegisterTest, DuplicationIsIdempotent) {
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), plan_of("dup:1000"), 7);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  for (std::uint64_t v = 1; v <= 10; ++v) {
    reg.write(v);
    EXPECT_EQ(reg.read(0), v);
  }
  EXPECT_GT(net.stats().duplicated, 0u);
  EXPECT_EQ(net.stats().client.unavailable, 0u);
}

TEST(ReplicatedRegisterTest, ReorderAndDelayTolerated) {
  NetConfig cfg = config_f(2);  // 5 replicas
  SimNet net(cfg.replicas(), plan_of("delay:500+4,reorder:500"), 7);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/2, 0);
  for (std::uint64_t v = 1; v <= 15; ++v) {
    reg.write(v);
    EXPECT_EQ(reg.read(static_cast<int>(v) % 2), v);
  }
  EXPECT_EQ(net.stats().client.unavailable, 0u);
}

TEST(ReplicatedRegisterTest, StaleRepliesNeverSatisfyANewPhase) {
  // A phase under total loss strands requests; when the network heals,
  // the next phase must not count the stale replies that then arrive.
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), NetFaultPlan{}, 7);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  reg.write(1);
  EXPECT_EQ(reg.read(0), 1u);  // op sequence numbers fence the inbox
  reg.write(2);
  EXPECT_EQ(reg.read(0), 2u);
}

TEST(ReplicatedRegisterTest, PersistsBeforeAck) {
  // On a clean network every replica's durable (ts, value) tracks its
  // volatile copy: the durability rule is persist first, ack second,
  // so nothing a client saw acknowledged can be lost to a crash.
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), NetFaultPlan{}, 1);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  for (std::uint64_t v = 1; v <= 5; ++v) reg.write(v);
  for (int r = 0; r < cfg.replicas(); ++r) {
    EXPECT_EQ(reg.durable_ts(r), reg.replica_ts(r));
    EXPECT_EQ(reg.durable_val(r), reg.replica_val(r));
  }
  EXPECT_GT(net.durable().stats().persists, 0u);
  EXPECT_TRUE(net.durable().report().findings.empty());
}

TEST(ReplicatedRegisterTest, RejoinCatchUpRestoresState) {
  // Node 2 crashes after 4 processed messages, sits out 6 steps, then
  // rejoins: reload durable state, catch up from a read quorum, serve.
  // By the end of the workload it has converged with the others.
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(), plan_of("recover:2@4+6"), 7);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  for (std::uint64_t v = 1; v <= 12; ++v) {
    reg.write(v);
    EXPECT_EQ(reg.read(0), v);
  }
  EXPECT_GE(net.stats().replica_recoveries, 1u);
  EXPECT_GT(net.stats().dropped_down, 0u);
  EXPECT_GT(net.stats().catchup_msgs, 0u);
  EXPECT_GT(net.durable().stats().reloads, 0u);
  EXPECT_TRUE(reg.replica_serving(2));
  EXPECT_EQ(reg.replica_ts(2), 12u);  // the sole writer's 12th timestamp
  EXPECT_EQ(reg.replica_val(2), 12u);
  EXPECT_EQ(net.stats().client.unavailable, 0u);
  // A correct implementation never trips the durability auditor.
  EXPECT_TRUE(net.durable().report().findings.empty());
}

TEST(ReplicatedRegisterTest, RepeatedRecoveriesStayAvailable) {
  // Both minority replicas cycle independently; the quorum is always
  // reachable and every acknowledged write survives.
  NetConfig cfg = config_f(1);
  SimNet net(cfg.replicas(),
             plan_of("recover:1@6+5,recover:2@10+4,recover:2@8+6"), 11);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  for (std::uint64_t v = 1; v <= 30; ++v) {
    reg.write(v);
    EXPECT_EQ(reg.read(0), v);
  }
  EXPECT_GE(net.stats().replica_recoveries, 2u);
  EXPECT_EQ(net.stats().client.unavailable, 0u);
  EXPECT_TRUE(net.durable().report().findings.empty());
}

// The client backoff window: capped at backoff_cap,
// deterministic under a fixed jitter seed, and shift-safe for attempt
// counts past the word width.
TEST(BackoffWindowTest, CapBoundsEveryWindow) {
  Rng jitter(42);
  for (unsigned attempt = 0; attempt < 100; ++attempt) {
    const std::uint64_t w = backoff_window(/*base=*/2, /*cap=*/16, attempt,
                                           jitter);
    EXPECT_LE(w, 16u + 16u / 2);  // cap plus the maximum jitter share
  }
}

TEST(BackoffWindowTest, DeterministicUnderFixedSeed) {
  const auto seq = [] {
    Rng jitter(7);
    std::vector<std::uint64_t> out;
    for (unsigned a = 0; a < 32; ++a) {
      out.push_back(backoff_window(3, 40, a, jitter));
    }
    return out;
  };
  EXPECT_EQ(seq(), seq());
}

TEST(BackoffWindowTest, NoOverflowAtLargeAttempts) {
  // base << attempt would wrap at attempt >= 61 for base 8; the window
  // must saturate at the cap instead of wrapping to something tiny.
  Rng jitter(9);
  for (unsigned attempt : {61u, 63u, 64u, 65u, 1000u, 4000000000u}) {
    const std::uint64_t w = backoff_window(8, 64, attempt, jitter);
    EXPECT_GE(w, 64u) << attempt;
    EXPECT_LE(w, 64u + 64u / 2) << attempt;
  }
}

TEST(BackoffWindowTest, ZeroBaseMeansNoWait) {
  Rng jitter(3);
  EXPECT_EQ(backoff_window(0, 50, 10, jitter), 0u);
}

TEST(NetCellTest, RequiresAndUsesAmbientFabric) {
  ScopedNetFabric fab(config_f(1), NetFaultPlan{}, 3);
  NetCell<std::uint64_t> cell(/*readers=*/2, 7, "test_cell");
  EXPECT_EQ(cell.read(0), 7u);
  cell.write(11);
  EXPECT_EQ(cell.read(1), 11u);
  EXPECT_TRUE(cell.try_write(12));
  EXPECT_EQ(cell.try_read(0), std::optional<std::uint64_t>(12));
  // The cell runs on the scoped fabric's network.
  EXPECT_GT(fab.net().stats().delivered, 0u);
}

TEST(NetCellTest, ScopedFabricsNest) {
  ScopedNetFabric outer(config_f(1), NetFaultPlan{}, 3);
  ScopedNetFabric* outer_ptr = ScopedNetFabric::current();
  {
    ScopedNetFabric inner(config_f(2), NetFaultPlan{}, 4);
    EXPECT_NE(ScopedNetFabric::current(), outer_ptr);
    NetCell<std::uint64_t> cell(/*readers=*/1, 0);
    cell.write(5);
    EXPECT_EQ(cell.read(0), 5u);
    EXPECT_GT(inner.net().stats().delivered, 0u);
    EXPECT_EQ(outer.net().stats().delivered, 0u);
  }
  EXPECT_EQ(ScopedNetFabric::current(), outer_ptr);
}

}  // namespace
}  // namespace compreg::net
