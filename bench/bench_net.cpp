// E14 — Cost of the networked substrate: messages, network steps, and
// robustness-layer activity per operation, swept over message-loss
// rate, replica count (f), and crash–recovery cycles, for (1) one raw
// ABD-replicated register and (2) the full composite register running
// every base cell over the simulated network. The recovery columns
// price the rejoin protocol: completed rejoins and catch-up
// resynchronization messages per operation.
//
// The quantities are deterministic counts from the SimNet transport
// (fixed seeds and handcrafted recovery cycles), so rows are exactly
// reproducible; wall-clock totals are printed per table as context,
// not as the measurement. With `--json FILE` every row is additionally
// written as one JSON object (a single array in FILE) so downstream
// tooling can diff runs.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/composite_register.h"
#include "lin/workload.h"
#include "net/replicated_register.h"
#include "sched/policy.h"
#include "util/bench_json.h"

namespace {

using compreg::lin::WorkloadConfig;
using compreg::net::NetCell;
using compreg::net::NetConfig;
using compreg::net::NetFaultPlan;
using compreg::net::NetStats;
using compreg::net::RecoverSpec;
using compreg::net::ReplicatedRegister;
using compreg::net::ScopedNetFabric;
using compreg::net::SimNet;

// Loss plus `cycles` staggered crash–recovery cycles on each minority
// replica (nodes 1 and 2 — a quorum survives at every f we sweep).
// after_msgs counts per incarnation, so fixed budgets give repeated
// cycles throughout the run.
NetFaultPlan fault_plan(unsigned loss_permille, unsigned cycles) {
  NetFaultPlan plan;
  plan.drop_permille = loss_permille;
  for (unsigned c = 0; c < cycles; ++c) {
    plan.recoveries.push_back(RecoverSpec{1, 40, 25});
    plan.recoveries.push_back(RecoverSpec{2, 70, 25});
  }
  return plan;
}

double per_op(std::uint64_t total, std::uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(ops);
}

// Every table row, kept for --json as one {"experiment":"E14",...}
// object.
compreg::BenchRows g_rows;

void print_header() {
  std::printf("%3s %6s %5s %8s %9s %9s %8s %7s %8s %8s %9s %9s\n", "f",
              "loss", "rcyc", "ops", "msgs/op", "polls/op", "retries",
              "unavail", "recov", "ctchp/op", "drpdown", "ms");
}

// Prints one table row (cycles = recovery cycles per minority replica)
// and keeps it for --json.
void record(const char* table, int f, unsigned loss, unsigned cycles,
            std::uint64_t ops, const NetStats& st, double ms) {
  std::printf("%3d %5u‰ %5u %8" PRIu64 " %9.1f %9.1f %8" PRIu64 " %7" PRIu64
              " %8" PRIu64 " %8.2f %8" PRIu64 " %9.2f\n",
              f, loss, cycles, ops, per_op(st.sent, ops),
              per_op(st.polls, ops), st.client.retries,
              st.client.unavailable, st.replica_recoveries,
              per_op(st.catchup_msgs, ops), st.dropped_down, ms);
  g_rows.add(
      "{\"experiment\":\"E14\",\"table\":\"%s\",\"f\":%d,"
      "\"loss_permille\":%u,\"recover_cycles\":%u,\"ops\":%" PRIu64
      ",\"sent\":%" PRIu64 ",\"delivered\":%" PRIu64 ",\"polls\":%" PRIu64
      ",\"msgs_per_op\":%.3f,\"polls_per_op\":%.3f,\"retries\":%" PRIu64
      ",\"unavailable\":%" PRIu64 ",\"writebacks\":%" PRIu64
      ",\"writeback_skips\":%" PRIu64 ",\"recoveries\":%" PRIu64
      ",\"recoveries_per_op\":%.4f,\"catchup_msgs\":%" PRIu64
      ",\"catchup_per_op\":%.3f,\"dropped_down\":%" PRIu64 ",\"ms\":%.2f}",
      table, f, loss, cycles, ops, st.sent, st.delivered, st.polls,
      per_op(st.sent, ops), per_op(st.polls, ops), st.client.retries,
      st.client.unavailable, st.client.writebacks, st.client.writeback_skips,
      st.replica_recoveries, per_op(st.replica_recoveries, ops),
      st.catchup_msgs, per_op(st.catchup_msgs, ops), st.dropped_down, ms);
}

// Part 1: one raw replicated register, sequential writer + reader.
void bench_raw(int f, unsigned loss, unsigned cycles,
               std::uint64_t ops_per_side) {
  NetConfig cfg;
  cfg.f = f;
  SimNet net(cfg.replicas(), fault_plan(loss, cycles), /*seed=*/42);
  ReplicatedRegister<std::uint64_t> reg(net, cfg, /*readers=*/1, 0, "bench");
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t completed = 0;
  for (std::uint64_t i = 1; i <= ops_per_side; ++i) {
    if (reg.try_write(i)) ++completed;
    if (reg.try_read(0).has_value()) ++completed;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  record("raw", f, loss, cycles, completed, net.stats(), ms);
}

// Part 2: the composite register (C writers, R readers) with every
// base cell ABD-replicated, under the deterministic simulator.
void bench_composite(int f, unsigned loss, unsigned cycles, int ops_each) {
  NetConfig cfg;
  cfg.f = f;
  ScopedNetFabric fab(cfg, fault_plan(loss, cycles), /*seed=*/42);
  compreg::core::CompositeRegister<std::uint64_t, NetCell, NetCell> snap(
      /*components=*/2, /*readers=*/2, 0);
  compreg::sched::RandomPolicy policy(/*seed=*/7);
  WorkloadConfig wl;
  wl.writes_per_writer = ops_each;
  wl.scans_per_reader = ops_each;
  const auto t0 = std::chrono::steady_clock::now();
  const compreg::lin::History h =
      compreg::lin::run_sim_workload(snap, policy, wl);
  const auto t1 = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  // Top-level snapshot operations (update/scan), the unit a user pays.
  const std::uint64_t ops = static_cast<std::uint64_t>(2 * ops_each) +
                            static_cast<std::uint64_t>(2 * ops_each);
  record("composite", f, loss, cycles, ops, fab.net().stats(), ms);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_net [--json FILE]\n");
      return 64;
    }
  }

  std::printf("E14: networked substrate cost vs loss rate, replica count, "
              "and crash-recovery cycles\n");
  std::printf("(msgs/op counts every send, including dropped and "
              "duplicated ones;\n polls/op is network steps driven by the "
              "client retry layer;\n recov = completed rejoins, ctchp/op = "
              "catch-up resync messages per op)\n\n");

  std::printf("-- raw ABD register: sequential write+read pairs, 1 writer "
              "+ 1 reader --\n");
  print_header();
  for (int f : {1, 2}) {
    for (unsigned loss : {0u, 10u, 100u}) {
      bench_raw(f, loss, /*cycles=*/0, /*ops_per_side=*/2000);
    }
  }

  std::printf("\n-- raw ABD register under crash-recovery churn --\n");
  print_header();
  for (int f : {1, 2}) {
    for (unsigned loss : {0u, 100u}) {
      for (unsigned cycles : {4u, 16u}) {
        bench_raw(f, loss, cycles, /*ops_per_side=*/2000);
      }
    }
  }

  std::printf("\n-- composite register over NetCell: C=2 writers, R=2 "
              "readers, simulator --\n");
  print_header();
  for (int f : {1, 2}) {
    for (unsigned loss : {0u, 10u, 100u}) {
      bench_composite(f, loss, /*cycles=*/0, /*ops_each=*/8);
    }
  }

  std::printf("\n-- composite register under crash-recovery churn --\n");
  print_header();
  for (int f : {1, 2}) {
    for (unsigned cycles : {4u, 16u}) {
      bench_composite(f, /*loss=*/100, cycles, /*ops_each=*/8);
    }
  }

  std::printf("\nops for the composite tables are top-level update/scan "
              "calls; each one\nfans out across the construction's base "
              "registers, so msgs/op measures\nthe construction's whole "
              "network footprint per user-visible operation.\n");

  if (json_path != nullptr && !g_rows.write(json_path, "net")) return 1;
  return 0;
}
