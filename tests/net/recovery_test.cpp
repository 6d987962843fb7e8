// Crash-recovery certification at unit scale. The durability auditor
// must flag both seeded amnesia mutants — ack-before-persist (a crash
// forgets an acknowledged write) and blank rejoin (a replica serves
// without reloading or catching up) — while the correct implementation
// runs the same crash schedules silently. A bounded DPOR exploration
// over the net substrate finds the ack mutant too, mirroring what
// `verify_schedules --impl net --amnesia ack` certifies at tool scale.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/composite_register.h"
#include "lin/workload.h"
#include "net/net_cell.h"
#include "net/replicated_register.h"
#include "sched/dpor.h"

namespace compreg::net {
namespace {

NetFaultPlan plan_of(const std::string& text) {
  auto plan = NetFaultPlan::parse(text);
  EXPECT_TRUE(plan.has_value()) << text;
  return plan.value_or(NetFaultPlan{});
}

NetConfig config_with(Amnesia amnesia) {
  NetConfig cfg;
  cfg.f = 1;
  cfg.amnesia = amnesia;
  return cfg;
}

bool has_finding(const SimNet& net, const std::string& kind) {
  for (const analysis::Finding& f : net.durable().report().findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

TEST(RecoveryTest, AckBeforePersistMutantFlagged) {
  // The mutant acks stores without persisting: the very first
  // acknowledged write trips the auditor, no crash required — the
  // finding says a crash WOULD forget the write.
  NetConfig cfg = config_with(Amnesia::kAckBeforePersist);
  SimNet net(cfg.replicas(), NetFaultPlan{}, 1);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  reg.write(1);
  EXPECT_TRUE(has_finding(net, "ack-before-persist"));
  // Durable state visibly lags the acked volatile state.
  EXPECT_LT(reg.durable_ts(0), reg.replica_ts(0));
}

TEST(RecoveryTest, BlankRejoinMutantFlagged) {
  // Node 2 processes two messages (the first store and the first
  // query), then its crash trigger fires on write(2)'s store. It
  // rejoins blank — volatile ts reset to 0, serving immediately, no
  // reload, no catch-up — so the next query it answers is below its
  // own durable ts: an amnesiac reply.
  NetConfig cfg = config_with(Amnesia::kBlankRejoin);
  SimNet net(cfg.replicas(), plan_of("recover:2@2+1"), 1);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  reg.write(1);
  EXPECT_EQ(reg.read(0), 1u);
  reg.write(2);  // node 2's store is eaten; the write still quorum-acks
  EXPECT_EQ(reg.read(0), 2u);  // linearizable despite the amnesiac node
  EXPECT_GE(net.stats().replica_recoveries, 1u);
  EXPECT_TRUE(has_finding(net, "amnesiac-reply"));
}

TEST(RecoveryTest, CorrectRecoveryRunsSameScheduleSilently) {
  // The identical crash schedule with the real protocol: reload
  // durable state, catch up from a read quorum, only then serve. The
  // auditor has nothing to say.
  NetConfig cfg = config_with(Amnesia::kNone);
  SimNet net(cfg.replicas(), plan_of("recover:2@2+1"), 1);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0);
  reg.write(1);
  EXPECT_EQ(reg.read(0), 1u);
  reg.write(2);
  EXPECT_EQ(reg.read(0), 2u);
  EXPECT_GE(net.stats().replica_recoveries, 1u);
  EXPECT_TRUE(net.durable().report().findings.empty());
  // And writes that land after the rejoin reach stable storage again.
  reg.write(3);
  EXPECT_EQ(reg.durable_ts(0), 3u);
}

TEST(RecoveryTest, BoundedDporFlagsAckMutant) {
  // Bounded DPOR over the net substrate, durability auditor consulted
  // after every explored execution — the mutant cannot hide behind any
  // schedule, so the first execution already flags it.
  using NetComposite =
      core::CompositeRegister<std::uint64_t, NetCell, NetCell>;
  struct Ctx {
    std::optional<ScopedNetFabric> fab;
    std::unique_ptr<NetComposite> snap;
  };
  bool flagged = false;
  const sched::DporScenario scenario = [&](sched::SimScheduler& sim) {
    auto ctx = std::make_shared<Ctx>();
    ctx->fab.emplace(config_with(Amnesia::kAckBeforePersist), NetFaultPlan{},
                     0x51b2e75eedull);
    ctx->snap = std::make_unique<NetComposite>(1, 1, 0);
    lin::WorkloadConfig wl;
    wl.writes_per_writer = 1;
    wl.scans_per_reader = 1;
    auto rec = lin::spawn_sim_workload(sim, *ctx->snap, wl);
    return [ctx, rec, &flagged] {
      if (!ctx->fab->fabric().net().durable().report().findings.empty()) {
        flagged = true;
      }
      return !flagged;  // stop at the first flagged execution
    };
  };
  sched::DporOptions opts;
  opts.max_schedules = 200;
  const sched::DporResult result = sched::explore_dpor(scenario, opts);
  EXPECT_GT(result.stats.schedules, 0u);
  EXPECT_TRUE(flagged);
}

}  // namespace
}  // namespace compreg::net
