// compreg_server: the standing multi-client register daemon.
//
// Fronts a 2f+1 ABD replica fleet (src/net/real/) with the service
// layer in src/server/: clients connect over UDS or TCP loopback, speak
// the length-prefixed client frames of net/real/wire.h, and get typed
// responses — kWriteOk/kReadOk, explicit kUnavailableResp when the
// fleet-side retry budget is spent, kBusyResp when admission control is
// full. Always-on telemetry (src/telemetry/) is exported at shutdown as
// a text stats file (--stats-out, parsed by compreg_loadgen) and a
// schema_version-1 JSON file (--json-out, validated by
// tools/check_bench_schema.py).
//
// Modes:
//   compreg_server [flags]              serve an already-running fleet
//   compreg_server --spawn-fleet [...]  spawn the fleet too (demo mode)
//   compreg_server --replica [...]      replica child (fleet member)
//
// SIGTERM/SIGINT triggers a graceful drain: stop admitting, finish
// every in-flight op, stop the workers, export telemetry, and verify
// the conservation invariant (received == ok + unavailable + busy).
// Exit 0 = clean shutdown with conservation intact; 1 = violated;
// 64 = usage error, a --stats-out/--json-out path that cannot be opened
// (checked at startup) or a failed write of either file at shutdown.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "server/server.h"
#include "telemetry/export.h"
#include "cli.h"
#include "fleet_common.h"

namespace {

using compreg::server::Server;
using compreg::server::ServerConfig;
using compreg::tools::can_write;
using compreg::tools::epoch_to_ns;
using compreg::tools::Fleet;
using compreg::tools::FleetConfig;
using compreg::tools::kExitUsage;
using compreg::tools::kind_name;
using compreg::tools::kMaxPort;
using compreg::tools::mix_seed;
using compreg::tools::parse_kind;
using compreg::tools::run_replica_child;
using compreg::net::real::TransportKind;

std::atomic<Server*> g_server{nullptr};

// Writes `text` to `path`; false, said on stderr, if any of it failed.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (out) return true;
  std::fprintf(stderr, "failed writing %s\n", path.c_str());
  return false;
}

void on_signal(int) {
  // Async-signal-safe: a lock-free load, then Server::stop() (a
  // lock-free store and an eventfd write).
  if (Server* s = g_server.load(std::memory_order_relaxed)) s->stop();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--replica")) {
    return run_replica_child(argc, argv);
  }

  ServerConfig cfg;
  bool spawn_fleet = false;
  std::string stats_out;
  std::string json_out;
  std::string plan_text;
  cfg.epoch_ns = epoch_to_ns(std::chrono::steady_clock::now());

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    auto number = [&](std::uint64_t lo, std::uint64_t hi) {
      const char* flag = argv[i];
      return compreg::tools::parse_number(flag, next(flag), lo, hi);
    };
    if (!std::strcmp(argv[i], "--kind")) {
      cfg.kind = parse_kind(next("--kind"));
    } else if (!std::strcmp(argv[i], "--f")) {
      cfg.f = static_cast<int>(number(1, compreg::net::kMaxF));
    } else if (!std::strcmp(argv[i], "--dir")) {
      cfg.fleet_dir = next("--dir");
    } else if (!std::strcmp(argv[i], "--front-dir")) {
      cfg.front_dir = next("--front-dir");
    } else if (!std::strcmp(argv[i], "--base-port")) {
      cfg.fleet_base_port = static_cast<int>(number(1, kMaxPort));
    } else if (!std::strcmp(argv[i], "--front-port")) {
      cfg.front_base_port = static_cast<int>(number(1, kMaxPort));
    } else if (!std::strcmp(argv[i], "--max-inflight")) {
      cfg.max_inflight = static_cast<std::uint32_t>(number(1, 1u << 20));
    } else if (!std::strcmp(argv[i], "--attempt-ms")) {
      cfg.attempt_ms = static_cast<unsigned>(number(1, 60000));
    } else if (!std::strcmp(argv[i], "--max-attempts")) {
      cfg.max_attempts = static_cast<unsigned>(number(1, 1000));
    } else if (!std::strcmp(argv[i], "--seed")) {
      cfg.seed = number(0, UINT64_MAX);
    } else if (!std::strcmp(argv[i], "--plan")) {
      plan_text = next("--plan");
    } else if (!std::strcmp(argv[i], "--epoch-ns")) {
      cfg.epoch_ns = static_cast<std::int64_t>(number(0, INT64_MAX));
    } else if (!std::strcmp(argv[i], "--stats-out")) {
      stats_out = next("--stats-out");
    } else if (!std::strcmp(argv[i], "--json-out")) {
      json_out = next("--json-out");
    } else if (!std::strcmp(argv[i], "--spawn-fleet")) {
      spawn_fleet = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return kExitUsage;
    }
  }
  if (cfg.fleet_dir.empty() && cfg.kind == TransportKind::kUds) {
    std::fprintf(stderr, "need --dir (fleet socket/data directory)\n");
    return kExitUsage;
  }
  if (cfg.front_dir.empty()) cfg.front_dir = cfg.fleet_dir + "/front";
  if (!plan_text.empty()) {
    std::string error;
    auto plan = compreg::net::NetFaultPlan::parse(plan_text, &error);
    if (!plan) {
      std::fprintf(stderr, "bad --plan: %s\n", error.c_str());
      return kExitUsage;
    }
    cfg.plan = *std::move(plan);
  }

  {
    const std::string cmd = "mkdir -p '" + cfg.front_dir + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "cannot create front dir %s\n",
                   cfg.front_dir.c_str());
      return kExitUsage;
    }
  }
  for (const std::string* path : {&stats_out, &json_out}) {
    if (!path->empty() && !can_write(*path)) {
      std::fprintf(stderr, "cannot write %s\n", path->c_str());
      return kExitUsage;
    }
  }

  // Demo/convenience mode: own the fleet ourselves. (The loadgen owns
  // the fleet in chaos runs so it can kill-9 members.)
  const auto epoch = compreg::tools::epoch_from_ns(cfg.epoch_ns);
  std::unique_ptr<Fleet> fleet;
  if (spawn_fleet) {
    FleetConfig fc;
    fc.f = cfg.f;
    fc.kind = cfg.kind;
    fc.base_port = cfg.fleet_base_port;
    fc.dir = cfg.fleet_dir;
    fc.plan_text = plan_text;
    fc.seed = cfg.seed;
    fleet = std::make_unique<Fleet>(fc, epoch);
    // Fleet::start wipes the directory; recreate the front dir after.
    if (!fleet->start()) return 1;
    const std::string cmd = "mkdir -p '" + cfg.front_dir + "'";
    if (std::system(cmd.c_str()) != 0) return 1;
    if (!fleet->wait_all_serving(std::chrono::milliseconds(15000))) {
      std::fprintf(stderr, "fleet startup failure\n");
      return 1;
    }
  }

  Server server(cfg);
  g_server.store(&server, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::printf("compreg_server: serving (kind=%s f=%d max_inflight=%u)\n",
              kind_name(cfg.kind), cfg.f, cfg.max_inflight);
  std::fflush(stdout);

  server.run();
  g_server.store(nullptr, std::memory_order_relaxed);

  const auto snap = server.registry().snapshot();
  const auto cons = server.conservation();
  std::printf("telemetry conservation: %s (received=%llu writes_ok=%llu "
              "reads_ok=%llu unavailable=%llu busy=%llu)\n",
              cons.ok ? "OK" : "VIOLATION",
              static_cast<unsigned long long>(cons.received),
              static_cast<unsigned long long>(cons.writes_ok),
              static_cast<unsigned long long>(cons.reads_ok),
              static_cast<unsigned long long>(cons.unavailable),
              static_cast<unsigned long long>(cons.busy));

  bool written = true;
  if (!stats_out.empty()) {
    written &= write_file(stats_out,
                          compreg::telemetry::to_text(snap) + "conservation " +
                              (cons.ok ? "OK" : "VIOLATION") + "\n");
  }
  if (!json_out.empty()) {
    written &= write_file(
        json_out,
        compreg::telemetry::to_json(snap, "server_telemetry", "E20"));
  }
  if (fleet) fleet->sup().terminate_all(std::chrono::milliseconds(2000));
  if (!written) return kExitUsage;
  return cons.ok ? 0 : 1;
}
