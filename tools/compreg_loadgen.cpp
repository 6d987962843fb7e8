// compreg_loadgen: the fleet-chaos driver for the real transport.
//
// Both modes spawn the 2f+1 replica fleet (re-executing this binary with
// --replica), inject the socket-level NetFaultPlan at every endpoint,
// optionally SIGKILL and restart replicas mid-traffic (`--kills N`, each
// cycle waiting for the victim's rejoin), record every operation in a
// global logical-clock history, and certify the run, not just measure
// it.
//
// Service mode (the default) also spawns a compreg_server daemon in
// front of the fleet and drives `--clients` concurrent connections
// (ServerClient, UDS or TCP) with a mixed write/read workload:
//
//   * the funneled atomicity checker (lin/register_checker.h): the
//     server assigns every write a timestamp from one monotone
//     sequence, so timestamp order must be a valid serialization of the
//     client-observed intervals, and reads must be regular with no
//     new-old inversion;
//   * value integrity: payloads encode (client id, op seq), so every
//     timestamp must map to exactly one value and every read must
//     return the exact bits of the write that owns its timestamp;
//   * crash-awareness: a write whose response was lost (timeout) may
//     still take effect — it is resolved from straggler responses or
//     from reads that reveal its value, and enters the history as a
//     *pending* write (end = kPendingEnd) rather than being dropped;
//   * graceful degradation: Busy (admission control) and Unavailable
//     (spent fleet retry budget) are typed, counted, and bounded — a
//     hang trips the watchdog, exit 2;
//   * the server's own telemetry must survive shutdown with the
//     conservation invariant intact (parsed from its stats file), and a
//     final probe read must observe at least the largest acknowledged
//     write timestamp (end-to-end durability through kill-9 cycles).
//
// Direct mode (`--direct`) spawns no daemon: one SWMR writer thread
// (`--ops` writes, value == ts) and `--clients`-1 reader threads drive
// RealAbdClient over FaultyTransport straight at the fleet. The history
// goes through the crash-aware register atomicity checker (Unavailable
// writes are pending: they may still take effect, they cannot
// un-happen), and the real durability audit checks that every killed
// replica restarts with a durable timestamp covering every ack a client
// received from it before the kill — persist-before-ack against real
// SIGKILLs. `--kill-majority` SIGKILLs f+1 replicas and requires every
// further operation to degrade to an explicit bounded Unavailable.
//
// `--bench-json FILE` writes BENCH_server.json from the soak (service
// mode) or sweeps loss x f into BENCH_transport.json (direct mode); both
// are validated by tools/check_bench_schema.py.
//
// Exit codes: 0 clean, 1 violation (artifact written), 2 watchdog hang,
// 64 usage (including a flag that does not apply to the selected mode,
// and an --out path that cannot be opened, checked at startup).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lin/history.h"
#include "lin/register_checker.h"
#include "net/net_plan.h"
#include "net/real/client.h"
#include "net/real/fault_transport.h"
#include "net/real/supervisor.h"
#include "net/real/transport.h"
#include "net/real/wire.h"
#include "server/client.h"
#include "server/protocol.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "cli.h"
#include "fleet_common.h"
#include "verify_common.h"

namespace {

using compreg::lin::kPendingEnd;
using compreg::lin::LogicalClock;
using compreg::lin::RegisterHistory;
using compreg::lin::RegRead;
using compreg::lin::RegWrite;
using compreg::net::NetFaultPlan;
using compreg::net::real::FaultyTransport;
using compreg::net::real::MsgType;
using compreg::net::real::ProcEvent;
using compreg::net::real::RealAbdClient;
using compreg::net::real::RealClientConfig;
using compreg::net::real::SocketTransport;
using compreg::net::real::TransportConfig;
using compreg::net::real::TransportKind;
using compreg::net::real::WireMsg;
using compreg::server::ClientConfig;
using compreg::server::make_read_req;
using compreg::server::make_write_req;
using compreg::server::ServerClient;
using compreg::tools::Artifact;
using compreg::tools::AuditStart;
using compreg::tools::can_write;
using compreg::tools::epoch_to_ns;
using compreg::tools::Fleet;
using compreg::tools::FleetConfig;
using compreg::tools::kExitUsage;
using compreg::tools::kExitViolation;
using compreg::tools::kind_name;
using compreg::tools::kMaxPort;
using compreg::tools::LiveState;
using compreg::tools::mix_seed;
using compreg::tools::parse_kind;
using compreg::tools::parse_number;
using compreg::tools::run_replica_child;
using compreg::tools::SteadyPoint;
using compreg::tools::Watchdog;
using compreg::tools::write_artifact;
using compreg::Rng;

// ---------------------------------------------------------------------------
// Options

struct Options {
  bool direct = false;         // drive the fleet with no daemon in front
  bool kill_majority = false;  // direct only
  int f = 1;
  TransportKind kind = TransportKind::kUds;
  int base_port = 47900;   // fleet-facing
  int front_port = 47950;  // client-facing (service mode, TCP only)
  std::string dir;         // empty: mkdtemp under /tmp
  NetFaultPlan plan;       // socket-level fault plan (every endpoint)
  int clients = 8;         // direct: one writer + clients-1 readers
  std::uint64_t ops = 100;  // per client; direct: writer ops
  unsigned write_pct = 20;
  int kills = 0;
  std::uint64_t seed = 1;
  // 0 until parsed, then a per-mode default: 15 ms for direct clients,
  // so each op of a dead-majority run spends its retry budget in well
  // under a second; 100 ms for the daemon.
  unsigned attempt_ms = 0;
  unsigned max_attempts = 8;
  std::uint32_t max_inflight = 128;
  unsigned op_timeout_ms = 10000;
  unsigned watchdog_sec = 300;
  std::string bench_json;
  std::string server_bin;  // default: <dir of this binary>/compreg_server
  Artifact artifact;

  int replicas() const { return 2 * f + 1; }
  FleetConfig fleet_config() const {
    FleetConfig cfg;
    cfg.f = f;
    cfg.kind = kind;
    cfg.base_port = base_port;
    cfg.dir = dir;
    cfg.plan_text = plan.to_string();
    cfg.seed = seed;
    return cfg;
  }
};

// The scenario flags: the failure artifact's config line, and the head
// of the replay command.
std::string config_line(const Options& opt) {
  std::ostringstream os;
  os << "compreg_loadgen" << (opt.direct ? " --direct" : "") << " --f "
     << opt.f << " --kind " << kind_name(opt.kind) << " --clients "
     << opt.clients << " --ops " << opt.ops << " --kills " << opt.kills
     << " --seed " << opt.seed;
  return os.str();
}

std::string replay_command(const Options& opt) {
  std::ostringstream os;
  os << config_line(opt) << " --attempt-ms " << opt.attempt_ms
     << " --max-attempts " << opt.max_attempts;
  if (opt.direct) {
    if (opt.kill_majority) os << " --kill-majority";
  } else {
    os << " --write-pct " << opt.write_pct << " --max-inflight "
       << opt.max_inflight;
  }
  if (!opt.plan.empty()) os << " --plan '" << opt.plan.to_string() << "'";
  os << "  # wall-clock chaos: replays the scenario, not the schedule";
  return os.str();
}

std::string default_server_bin() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "compreg_server";
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return "compreg_server";
  return path.substr(0, slash) + "/compreg_server";
}

double percentile_us(std::vector<std::uint64_t>& ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  return static_cast<double>(ns[idx]) / 1000.0;
}

std::uint64_t elapsed_ns(SteadyPoint t0, SteadyPoint t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// ---------------------------------------------------------------------------
// Shared by both modes: fleet start-up, kill-9 cycles, the verdict

// Spawns the fleet (under `subdir` of the data dir when given) and waits
// for every replica's first 'serving' line.
bool start_fleet(const Options& opt, Fleet& fleet,
                 const std::string& subdir = std::string()) {
  if (!fleet.start(subdir)) return false;
  if (fleet.wait_all_serving(std::chrono::milliseconds(15000))) return true;
  write_artifact(opt.artifact, "fleet startup failure", opt.seed, "",
                 opt.plan.to_string(), "", replay_command(opt),
                 "a replica never logged 'serving' within 15s of spawn",
                 nullptr);
  return false;
}

// Kill-9 chaos over the fleet (never the daemon): spreads opt.kills
// cycles evenly over `total` operations as `ops_done` counts them, one
// victim at a time, each cycle waiting for the victim's rejoin (its next
// 'serving' audit line) before arming the next.
void kill_cycles(const Options& opt, Fleet& fleet,
                 const std::atomic<std::uint64_t>& ops_done,
                 std::uint64_t total, std::atomic<std::uint64_t>& progress,
                 std::vector<std::string>& findings) {
  for (int k = 0; k < opt.kills; ++k) {
    const std::uint64_t threshold =
        total * static_cast<std::uint64_t>(k + 1) /
        static_cast<std::uint64_t>(opt.kills + 1);
    while (ops_done.load(std::memory_order_relaxed) < threshold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const int victim = k % opt.replicas();
    const int seen = fleet.serving_count(victim);
    std::printf("loadgen: kill-9 cycle %d/%d -> replica %d\n", k + 1,
                opt.kills, victim);
    fleet.sup().kill9(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // downtime
    fleet.spawn(victim);
    progress.fetch_add(1);
    if (!fleet.wait_serving(victim, seen + 1,
                            std::chrono::milliseconds(30000))) {
      std::ostringstream os;
      os << "recovery: replica " << victim
         << " did not rejoin (no new 'serving' line) within 30s of restart";
      findings.push_back(os.str());
      break;
    }
    progress.fetch_add(1);
  }
}

// Writes the artifact when there are findings and prints the verdict.
int verdict(const Options& opt, const std::vector<std::string>& findings) {
  if (findings.empty()) {
    std::printf("compreg_loadgen: PASS\n");
    return 0;
  }
  std::ostringstream dump;
  for (const std::string& f : findings) dump << f << "\n";
  write_artifact(opt.artifact, "violation", opt.seed, "",
                 opt.plan.to_string(), "", replay_command(opt),
                 findings.front(), nullptr, dump.str());
  std::printf("compreg_loadgen: FAIL (%zu finding%s)\n", findings.size(),
              findings.size() == 1 ? "" : "s");
  return kExitViolation;
}

// ---------------------------------------------------------------------------
// Direct mode: RealAbdClient threads straight at the fleet

struct AckRec {
  int replica = -1;
  std::uint64_t ts = 0;
  std::int64_t t_ns = 0;
};

struct WorkerOut {
  std::vector<RegWrite> writes;
  std::vector<RegRead> reads;
  std::vector<AckRec> acks;
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t unavailable_reads = 0;
  std::uint64_t pending_writes = 0;
  std::uint64_t value_mismatches = 0;
  std::uint64_t retries = 0;
  std::uint64_t frames_sent = 0;
};

RealClientConfig abd_config(const Options& opt) {
  RealClientConfig cfg;
  cfg.f = opt.f;
  cfg.attempt_timeout = std::chrono::milliseconds(opt.attempt_ms);
  cfg.max_attempts = opt.max_attempts;
  return cfg;
}

TransportConfig client_transport(const Options& opt, const Fleet& fleet,
                                 int node) {
  TransportConfig cfg;
  cfg.kind = opt.kind;
  cfg.self = node;
  cfg.replicas = opt.replicas();
  cfg.dir = fleet.dir();
  cfg.base_port = static_cast<std::uint16_t>(opt.base_port);
  return cfg;
}

// Client 0 is the single writer: ts sequence 1..ops, value == ts (so a
// read's value is its write id and corruption is detectable). Every
// other client reads until `stop`.
void direct_client(const Options& opt, const Fleet& fleet, SteadyPoint epoch,
                   int client, LogicalClock& clock,
                   std::atomic<std::uint64_t>& progress,
                   std::atomic<std::uint64_t>& writes_done,
                   const std::atomic<bool>& stop, WorkerOut& out) {
  const int node = opt.replicas() + client;
  SocketTransport socket(client_transport(opt, fleet, node));
  FaultyTransport net(socket, opt.plan, mix_seed(opt.seed, node), epoch);
  RealAbdClient abd(net, abd_config(opt), epoch);
  abd.set_ack_hook([&](int replica, std::uint64_t ts, std::int64_t t_ns) {
    out.acks.push_back(AckRec{replica, ts, t_ns});
  });
  if (client == 0) {
    // The fleet was wiped at start, so the sole writer starts at ts 0
    // and its i-th write gets ts i: the value it writes.
    abd.start_at(0);
    for (std::uint64_t ts = 1; ts <= opt.ops; ++ts) {
      const std::uint64_t start = clock.tick();
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = abd.write_next(ts).ok;
      const auto t1 = std::chrono::steady_clock::now();
      const std::uint64_t end = clock.tick();
      out.writes.push_back(RegWrite{ts, start, ok ? end : kPendingEnd});
      if (!ok) ++out.pending_writes;
      out.latencies_ns.push_back(elapsed_ns(t0, t1));
      progress.fetch_add(1, std::memory_order_relaxed);
      writes_done.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t start = clock.tick();
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = abd.try_read();
      const auto t1 = std::chrono::steady_clock::now();
      const std::uint64_t end = clock.tick();
      if (result.ok) {
        // value == write id by construction; a mismatch is corruption the
        // atomicity checker could never see (it only sees ids).
        if (result.val != result.ts) ++out.value_mismatches;
        out.reads.push_back(RegRead{result.ts, start, end});
        out.latencies_ns.push_back(elapsed_ns(t0, t1));
      } else {
        ++out.unavailable_reads;
      }
      progress.fetch_add(1, std::memory_order_relaxed);
    }
  }
  out.retries = abd.stats().retries;
  out.frames_sent = socket.stats().sent;
}

// Runs the writer and opt.clients-1 readers until the writer has issued
// opt.ops writes, with the kill-9 cycles on this thread meanwhile.
// Returns every client's record, the writer's first.
std::vector<WorkerOut> drive_direct(const Options& opt, Fleet& fleet,
                                    SteadyPoint epoch,
                                    std::atomic<std::uint64_t>& progress,
                                    std::vector<std::string>& findings) {
  LogicalClock clock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes_done{0};
  std::vector<WorkerOut> outs(static_cast<std::size_t>(opt.clients));
  std::vector<std::thread> threads;
  threads.reserve(outs.size());
  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      direct_client(opt, fleet, epoch, c, clock, progress, writes_done, stop,
                    outs[static_cast<std::size_t>(c)]);
    });
  }
  kill_cycles(opt, fleet, writes_done, opt.ops, progress, findings);
  threads[0].join();
  stop.store(true);
  for (std::size_t c = 1; c < threads.size(); ++c) threads[c].join();
  return outs;
}

// Durability audit (real kill-9 edition)
//
// Invariant: for every SIGKILL of replica v at supervisor time T, the
// next restart of v must reload durable_ts >= max{ts | some client
// received a STORE ack (v, ts) at time < T}. An ack received before the
// kill proves the persist completed before the kill (persist happens
// before the ack frame leaves), so the durable file must still hold it.
std::vector<std::string> audit_durability(
    const std::vector<ProcEvent>& events,
    const std::vector<AuditStart>& starts,
    const std::vector<AckRec>& acks, int* cycles_audited) {
  std::vector<std::string> findings;
  int audited = 0;
  for (const ProcEvent& ev : events) {
    if (ev.kind != ProcEvent::Kind::kKill) continue;
    std::uint64_t acked_before_kill = 0;
    for (const AckRec& ack : acks) {
      if (ack.replica == ev.node && ack.t_ns < ev.t_ns) {
        acked_before_kill = std::max(acked_before_kill, ack.ts);
      }
    }
    // First restart of this node after the kill.
    const AuditStart* restart = nullptr;
    for (const AuditStart& s : starts) {
      if (s.node == ev.node && s.t_ns > ev.t_ns &&
          (restart == nullptr || s.t_ns < restart->t_ns)) {
        restart = &s;
      }
    }
    if (restart == nullptr) continue;  // killed, never restarted: nothing owed
    ++audited;
    if (restart->existed == 0 && acked_before_kill > 0) {
      std::ostringstream os;
      os << "durability: replica " << ev.node
         << " restarted with NO durable file but had acked ts "
         << acked_before_kill << " before the kill";
      findings.push_back(os.str());
      continue;
    }
    if (restart->durable_ts < acked_before_kill) {
      std::ostringstream os;
      os << "durability: replica " << ev.node << " restarted with durable_ts "
         << restart->durable_ts << " < acked ts " << acked_before_kill
         << " (ack received " << "before the SIGKILL at t_ns=" << ev.t_ns
         << ") — persist-before-ack violated";
      findings.push_back(os.str());
    }
  }
  if (cycles_audited != nullptr) *cycles_audited = audited;
  return findings;
}

int run_direct(const Options& opt, LiveState& live,
               std::atomic<std::uint64_t>& progress) {
  const SteadyPoint epoch = std::chrono::steady_clock::now();
  live.set(opt.seed, "", opt.plan.to_string());
  Fleet fleet(opt.fleet_config(), epoch);
  if (!start_fleet(opt, fleet)) return kExitViolation;
  progress.fetch_add(1);

  std::vector<std::string> findings;
  const std::vector<WorkerOut> outs =
      drive_direct(opt, fleet, epoch, progress, findings);
  fleet.sup().terminate_all(std::chrono::milliseconds(2000));

  // Assemble and check the global history.
  RegisterHistory history;
  std::uint64_t pending_writes = 0;
  std::uint64_t unavailable_reads = 0;
  std::uint64_t mismatches = 0;
  std::vector<AckRec> all_acks;
  for (const WorkerOut& out : outs) {
    history.writes.insert(history.writes.end(), out.writes.begin(),
                          out.writes.end());
    history.reads.insert(history.reads.end(), out.reads.begin(),
                         out.reads.end());
    pending_writes += out.pending_writes;
    unavailable_reads += out.unavailable_reads;
    mismatches += out.value_mismatches;
    all_acks.insert(all_acks.end(), out.acks.begin(), out.acks.end());
  }
  const auto lin = compreg::lin::check_register_atomicity(history);
  if (!lin.ok) findings.push_back("linearizability: " + lin.violation);
  if (mismatches != 0) {
    findings.push_back("corruption: " + std::to_string(mismatches) +
                       " reads returned val != ts");
  }

  int cycles_audited = 0;
  const auto durability =
      audit_durability(fleet.sup().events(), fleet.starts(), all_acks,
                       &cycles_audited);
  findings.insert(findings.end(), durability.begin(), durability.end());

  std::printf(
      "history: writes=%zu (pending %" PRIu64 ") reads=%zu (unavailable %"
      PRIu64 ")\n",
      history.writes.size(), pending_writes, history.reads.size(),
      unavailable_reads);
  std::printf("lin: %s\n", lin.ok ? "OK" : lin.violation.c_str());
  std::printf("durability: %s (%d kill cycle%s audited, %zu acks)\n",
              durability.empty() ? "OK" : "VIOLATION", cycles_audited,
              cycles_audited == 1 ? "" : "s", all_acks.size());
  return verdict(opt, findings);
}

// With f+1 replicas dead, every operation must degrade to an explicit
// Unavailable within its bounded retry budget: never hang (the watchdog
// guards that), never return a value.
int run_kill_majority(const Options& opt, LiveState& live,
                      std::atomic<std::uint64_t>& progress) {
  const SteadyPoint epoch = std::chrono::steady_clock::now();
  live.set(opt.seed, "", opt.plan.to_string());
  Fleet fleet(opt.fleet_config(), epoch);
  if (!start_fleet(opt, fleet)) return kExitViolation;

  SocketTransport socket(client_transport(opt, fleet, opt.replicas()));
  FaultyTransport net(socket, NetFaultPlan{}, opt.seed, epoch);
  RealAbdClient abd(net, abd_config(opt), epoch);

  // Warmup: with the full fleet up, writes must succeed. The fleet was
  // wiped at start, so the sole writer starts at ts 0; every write_next
  // uses one timestamp, and the value written is that timestamp.
  abd.start_at(0);
  std::uint64_t ts = 0;
  for (int i = 0; i < 5; ++i) {
    if (!abd.write_next(++ts).ok) {
      return verdict(opt, {"kill-majority: warmup write " +
                           std::to_string(i) + " failed with the full fleet"});
    }
    progress.fetch_add(1);
  }

  for (int node = 0; node <= opt.f; ++node) fleet.sup().kill9(node);
  std::printf("kill-majority: %d of %d replicas SIGKILLed\n", opt.f + 1,
              opt.replicas());

  // The per-op bound guards against unbounded-but-moving retries.
  const auto per_op_budget = std::chrono::milliseconds(
      static_cast<std::int64_t>(opt.max_attempts) *
      (static_cast<std::int64_t>(opt.attempt_ms) + 64 + 32) * 4);
  const std::uint64_t attempts = std::min<std::uint64_t>(opt.ops, 50);
  for (std::uint64_t i = 0; i < attempts; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = abd.write_next(++ts).ok;
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    progress.fetch_add(1);
    if (ok) {
      return verdict(opt, {"kill-majority: write " + std::to_string(i) +
                           " claimed success without a quorum"});
    }
    if (elapsed > per_op_budget) {
      return verdict(opt, {"kill-majority: write " + std::to_string(i) +
                           " took longer than the retry budget allows (not "
                           "a bounded degradation)"});
    }
  }
  if (abd.try_read().ok) {
    return verdict(opt, {"kill-majority: read claimed success"});
  }
  std::printf("kill-majority: %" PRIu64 "/%" PRIu64
              " writes and 1/1 reads degraded to explicit Unavailable "
              "(bounded, no hangs, no wrong values)\n",
              attempts, attempts);
  return verdict(opt, {});
}

// Loss x f sweep -> BENCH_transport.json. Each cell is a fresh fleet
// driven by one writer (opt.ops writes) and one reader, with no kills
// and no fault but the cell's loss rate: the cell fixes f, the plan,
// the client count and the kills, whatever the flags say.
int run_sweep(const Options& opt, std::atomic<std::uint64_t>& progress) {
  const unsigned losses[] = {0, 10, 100};  // permille: 0%, 1%, 10%
  const int fs[] = {1, 2};
  compreg::BenchRows rows;
  int cell = 0;
  for (const int f : fs) {
    for (const unsigned loss : losses) {
      Options cfg = opt;
      cfg.f = f;
      cfg.plan = NetFaultPlan{};
      cfg.plan.drop_permille = loss;
      cfg.base_port = opt.base_port + 16 * cell;
      cfg.clients = 2;
      cfg.kills = 0;
      const SteadyPoint epoch = std::chrono::steady_clock::now();
      Fleet fleet(cfg.fleet_config(), epoch);
      if (!start_fleet(cfg, fleet,
                       "bench-l" + std::to_string(loss) + "-f" +
                           std::to_string(f))) {
        return kExitViolation;
      }
      std::vector<std::string> no_kills;
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<WorkerOut> outs =
          drive_direct(cfg, fleet, epoch, progress, no_kills);
      const auto t1 = std::chrono::steady_clock::now();
      fleet.sup().terminate_all(std::chrono::milliseconds(2000));

      std::uint64_t ops = 0;
      std::uint64_t retries = 0;
      std::uint64_t frames = 0;
      std::uint64_t pending = 0;
      std::uint64_t unavailable_reads = 0;
      std::vector<std::uint64_t> lat;
      for (const WorkerOut& out : outs) {
        ops += out.writes.size() + out.reads.size() + out.unavailable_reads;
        retries += out.retries;
        frames += out.frames_sent;
        pending += out.pending_writes;
        unavailable_reads += out.unavailable_reads;
        lat.insert(lat.end(), out.latencies_ns.begin(),
                   out.latencies_ns.end());
      }
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      const double ops_d = static_cast<double>(ops);
      const double p50 = percentile_us(lat, 0.50);
      const double p99 = percentile_us(lat, 0.99);
      const double retries_per_op = static_cast<double>(retries) / ops_d;
      const double msgs_per_op = static_cast<double>(frames) / ops_d;
      std::ostringstream row;
      row << "{\"experiment\": \"E18\", "
          << "\"kind\": \"" << kind_name(opt.kind)
          << "\", \"writer_ops_per_cell\": " << opt.ops
          << ", \"loss_permille\": " << loss << ", \"f\": " << f
          << ", \"ops\": " << ops
          << ", \"throughput_ops_per_s\": " << ops_d / secs
          << ", \"p50_us\": " << p50 << ", \"p99_us\": " << p99
          << ", \"retries_per_op\": " << retries_per_op
          << ", \"msgs_per_op\": " << msgs_per_op
          << ", \"pending_writes\": " << pending
          << ", \"unavailable_reads\": " << unavailable_reads << "}";
      rows.add_text(row.str());
      ++cell;
      std::printf("bench: loss=%u%%o f=%d ops=%" PRIu64
                  " thr=%.0f/s p50=%.1fus p99=%.1fus retries/op=%.4f "
                  "msgs/op=%.2f\n",
                  loss, f, ops, ops_d / secs, p50, p99, retries_per_op,
                  msgs_per_op);
    }
  }

  return rows.write(opt.bench_json, "transport") ? 0 : kExitViolation;
}

// ---------------------------------------------------------------------------
// Service mode: ServerClient connections through the daemon

// Payloads encode their writer: val = (client id << 32) | op seq. The
// initial value 0 decodes to client 0, which is the server itself and
// never a workload client, so it can't collide with a real write.
std::uint64_t encode_val(std::uint32_t client, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client) << 32) |
         (seq & 0xffffffffull);
}

struct LostWrite {
  std::uint64_t seq = 0;
  std::uint64_t val = 0;
  std::uint64_t start = 0;
  bool resolved = false;
};

struct ReadRec {
  RegRead read;
  std::uint64_t val = 0;
};

struct ClientOut {
  std::vector<RegWrite> writes;  // resolved: server timestamp known
  std::vector<std::uint64_t> write_vals;  // parallel to `writes`
  std::vector<ReadRec> reads;
  std::vector<LostWrite> lost_writes;
  std::vector<std::uint64_t> latencies_ns;  // completed (Ok) ops only
  std::uint64_t busy = 0;
  std::uint64_t unavailable_writes = 0;
  std::uint64_t unavailable_reads = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t proto_errors = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t max_acked_ts = 0;  // largest ts any kWriteOk carried
  bool connect_failed = false;
};

ClientConfig client_config(const Options& opt, const std::string& front_dir,
                           std::uint32_t id) {
  ClientConfig cfg;
  cfg.kind = opt.kind;
  cfg.front_dir = front_dir;
  cfg.front_base_port = opt.front_port;
  cfg.id = id;
  return cfg;
}

void client_main(const Options& opt, const std::string& front_dir,
                 std::uint32_t id, LogicalClock& clock,
                 std::atomic<std::uint64_t>& progress,
                 std::atomic<std::uint64_t>& ops_done, ClientOut& out) {
  ServerClient cli(client_config(opt, front_dir, id));
  if (!cli.connect(std::chrono::milliseconds(15000))) {
    out.connect_failed = true;
    ops_done.fetch_add(opt.ops, std::memory_order_relaxed);
    return;
  }
  Rng rng(mix_seed(opt.seed, 1000 + static_cast<int>(id)));
  // Straggler responses, by op seq: an op we already timed out may still
  // be answered on this connection; its response is mined afterwards so
  // a lost-but-applied write re-enters the history as pending.
  std::unordered_map<std::uint64_t, WireMsg> stale;

  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < opt.ops; ++i) {
    const bool is_write = (rng() % 100) < opt.write_pct;
    ++seq;
    const std::uint64_t val = encode_val(id, seq);
    const WireMsg req =
        is_write ? make_write_req(id, seq, val) : make_read_req(id, seq);

    const std::uint64_t start = clock.tick();
    const auto t0 = std::chrono::steady_clock::now();
    if (!cli.send(req)) {
      ++out.disconnects;
      if (!cli.connect(std::chrono::milliseconds(10000)) || !cli.send(req)) {
        out.connect_failed = true;
        ops_done.fetch_add(opt.ops - i, std::memory_order_relaxed);
        return;
      }
    }

    const auto deadline = t0 + std::chrono::milliseconds(opt.op_timeout_ms);
    std::optional<WireMsg> resp;
    while (true) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      auto m = cli.recv(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now));
      if (!m) {
        if (!cli.connected()) {
          ++out.disconnects;
          if (!cli.connect(std::chrono::milliseconds(10000))) {
            out.connect_failed = true;
            ops_done.fetch_add(opt.ops - i, std::memory_order_relaxed);
            return;
          }
        }
        break;  // timed out (or reconnected: response is gone anyway)
      }
      if (m->op == seq) {
        resp = *m;
        break;
      }
      stale.emplace(m->op, *m);  // straggler from an earlier timed-out op
    }

    const std::uint64_t end = clock.tick();
    const auto t1 = std::chrono::steady_clock::now();
    if (!resp) {
      if (is_write) {
        out.lost_writes.push_back(LostWrite{seq, val, start, false});
      } else {
        ++out.read_timeouts;
      }
    } else {
      switch (resp->type) {
        case MsgType::kWriteOk:
          if (!is_write) {
            ++out.proto_errors;
            break;
          }
          out.writes.push_back(RegWrite{resp->ts, start, end});
          out.write_vals.push_back(val);
          out.max_acked_ts = std::max(out.max_acked_ts, resp->ts);
          out.latencies_ns.push_back(elapsed_ns(t0, t1));
          break;
        case MsgType::kReadOk:
          if (is_write) {
            ++out.proto_errors;
            break;
          }
          out.reads.push_back(
              ReadRec{RegRead{resp->ts, start, end}, resp->val});
          out.latencies_ns.push_back(elapsed_ns(t0, t1));
          break;
        case MsgType::kUnavailableResp:
          if (is_write) {
            // The assigned timestamp rode along: the write may yet take
            // effect, so it enters the history pending, exactly like a
            // crashed writer's abandoned operation. Timestamp 0 means
            // none was assigned (the server had no fleet seed yet): the
            // write was never sent and has no effect.
            if (resp->ts != 0) {
              out.writes.push_back(RegWrite{resp->ts, start, kPendingEnd});
              out.write_vals.push_back(val);
            }
            ++out.unavailable_writes;
          } else {
            ++out.unavailable_reads;
          }
          break;
        case MsgType::kBusyResp:
          // Rejected before any fleet traffic: no timestamp, no effect,
          // no history record.
          ++out.busy;
          break;
        default:
          ++out.proto_errors;
          break;
      }
    }
    progress.fetch_add(1, std::memory_order_relaxed);
    ops_done.fetch_add(1, std::memory_order_relaxed);
  }

  // Drain stragglers briefly, then resolve lost writes whose responses
  // eventually arrived: an Ok, or an Unavailable with a timestamp,
  // proves the server assigned one, so the write is recorded pending
  // (its client-observed interval never closed).
  const auto drain_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (cli.connected() && std::chrono::steady_clock::now() < drain_until) {
    auto m = cli.recv(std::chrono::milliseconds(50));
    if (!m) break;
    stale.emplace(m->op, *m);
  }
  for (LostWrite& lost : out.lost_writes) {
    const auto it = stale.find(lost.seq);
    if (it == stale.end()) continue;
    const WireMsg& m = it->second;
    if (m.type != MsgType::kWriteOk && m.type != MsgType::kUnavailableResp) {
      continue;
    }
    lost.resolved = true;
    if (m.ts == 0) continue;  // no timestamp assigned: never sent
    out.writes.push_back(RegWrite{m.ts, lost.start, kPendingEnd});
    out.write_vals.push_back(lost.val);
    if (m.type == MsgType::kWriteOk) {
      out.max_acked_ts = std::max(out.max_acked_ts, m.ts);
    }
  }
}

// The daemon's stats file, written by compreg_server at shutdown.
struct ServerStats {
  bool found = false;
  bool conservation_ok = false;
  std::uint64_t busy = 0;
  std::uint64_t batch_rounds = 0;
  std::uint64_t batched_reads = 0;
  std::uint64_t batch_count = 0;
  double batch_mean = 0;
};

ServerStats parse_server_stats(const std::string& path) {
  ServerStats st;
  std::ifstream in(path);
  if (!in) return st;
  st.found = true;
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long v = 0;
    unsigned long long cnt = 0;
    unsigned long long sum = 0;
    double mean = 0;
    if (std::sscanf(line.c_str(), "counter busy %llu", &v) == 1) {
      st.busy = v;
    } else if (std::sscanf(line.c_str(), "counter batch_rounds %llu", &v) ==
               1) {
      st.batch_rounds = v;
    } else if (std::sscanf(line.c_str(), "counter batched_reads %llu", &v) ==
               1) {
      st.batched_reads = v;
    } else if (std::sscanf(line.c_str(),
                           "histo batch_occupancy count=%llu sum=%llu "
                           "mean=%lf",
                           &cnt, &sum, &mean) == 3) {
      st.batch_count = cnt;
      st.batch_mean = mean;
    } else if (line == "conservation OK") {
      st.conservation_ok = true;
    }
  }
  return st;
}

int run_soak(const Options& opt, LiveState& live,
             std::atomic<std::uint64_t>& progress) {
  const SteadyPoint epoch = std::chrono::steady_clock::now();
  live.set(opt.seed, "", opt.plan.to_string());
  Fleet fleet(opt.fleet_config(), epoch);
  if (!start_fleet(opt, fleet)) return kExitViolation;
  progress.fetch_add(1);

  const std::string front_dir = fleet.dir() + "/front";
  const std::string stats_path = fleet.dir() + "/server_stats.txt";
  const int server_node = opt.replicas();  // supervisor slot, not a replica
  {
    std::vector<std::string> argv = {
        opt.server_bin,
        "--kind", kind_name(opt.kind),
        "--f", std::to_string(opt.f),
        "--dir", fleet.dir(),
        "--front-dir", front_dir,
        "--base-port", std::to_string(opt.base_port),
        "--front-port", std::to_string(opt.front_port),
        "--max-inflight", std::to_string(opt.max_inflight),
        "--attempt-ms", std::to_string(opt.attempt_ms),
        "--max-attempts", std::to_string(opt.max_attempts),
        "--seed", std::to_string(opt.seed),
        "--epoch-ns", std::to_string(epoch_to_ns(epoch)),
        "--stats-out", stats_path,
    };
    if (!opt.plan.empty()) {
      argv.push_back("--plan");
      argv.push_back(opt.plan.to_string());
    }
    fleet.sup().spawn(server_node, argv);
  }

  // Warmup probe: the server is up once a read round-trips. Busy and
  // timeouts are retried — the daemon may still be seeding its write
  // timestamp from the initial collect.
  {
    ServerClient probe(client_config(opt, front_dir, 1000000));
    bool up = false;
    if (probe.connect(std::chrono::milliseconds(15000))) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(15);
      std::uint64_t probe_seq = 0;
      while (std::chrono::steady_clock::now() < until) {
        if (!probe.send(make_read_req(1000000, ++probe_seq))) break;
        auto m = probe.recv(std::chrono::milliseconds(1000));
        if (m && m->op == probe_seq && m->type == MsgType::kReadOk) {
          up = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    if (!up) {
      write_artifact(opt.artifact, "server startup failure", opt.seed, "",
                     opt.plan.to_string(), "", replay_command(opt),
                     "no ReadOk from the daemon within 15s of spawn",
                     nullptr);
      return kExitViolation;
    }
  }
  progress.fetch_add(1);
  std::printf("loadgen: fleet + server up (kind=%s f=%d), driving %d "
              "clients x %" PRIu64 " ops\n",
              kind_name(opt.kind), opt.f, opt.clients, opt.ops);

  LogicalClock clock;
  std::atomic<std::uint64_t> ops_done{0};
  std::vector<ClientOut> outs(static_cast<std::size_t>(opt.clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opt.clients));
  const auto t_start = std::chrono::steady_clock::now();
  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      client_main(opt, front_dir, static_cast<std::uint32_t>(c + 1), clock,
                  progress, ops_done, outs[static_cast<std::size_t>(c)]);
    });
  }
  std::vector<std::string> findings;
  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(opt.clients) * opt.ops;
  kill_cycles(opt, fleet, ops_done, total_ops, progress, findings);
  for (std::thread& t : threads) t.join();
  const auto t_end = std::chrono::steady_clock::now();

  // Global resolution: one timestamp, one value. Writes we know the
  // timestamp of (acked, degraded, or mined) pin ts -> val; a read that
  // returns a ts no write claims must decode to a client's unresolved
  // lost write, which it thereby resolves (pending). Anything else is
  // corruption or fabrication.
  std::map<std::uint64_t, std::uint64_t> ts_to_val;
  for (const ClientOut& out : outs) {
    for (std::size_t i = 0; i < out.writes.size(); ++i) {
      const auto [it, inserted] =
          ts_to_val.emplace(out.writes[i].id, out.write_vals[i]);
      if (!inserted && it->second != out.write_vals[i]) {
        findings.push_back("integrity: server assigned timestamp " +
                           std::to_string(out.writes[i].id) +
                           " to two different writes");
      }
    }
  }
  RegisterHistory history;
  for (const ClientOut& out : outs) {
    history.writes.insert(history.writes.end(), out.writes.begin(),
                          out.writes.end());
  }
  std::uint64_t value_mismatches = 0;
  std::uint64_t unknown_values = 0;
  for (ClientOut& out : outs) {
    for (const ReadRec& rec : out.reads) {
      const std::uint64_t ts = rec.read.id;
      const std::uint64_t val = rec.val;
      if (ts == 0) {
        if (val != 0) ++value_mismatches;
        history.reads.push_back(rec.read);
        continue;
      }
      const auto it = ts_to_val.find(ts);
      if (it != ts_to_val.end()) {
        if (it->second != val) ++value_mismatches;
        history.reads.push_back(rec.read);
        continue;
      }
      // Unclaimed timestamp: the value names its writer.
      const auto cid = static_cast<std::uint32_t>(val >> 32);
      const std::uint64_t wseq = val & 0xffffffffull;
      bool revealed = false;
      if (cid >= 1 && cid <= static_cast<std::uint32_t>(opt.clients)) {
        ClientOut& owner = outs[cid - 1];
        for (LostWrite& lost : owner.lost_writes) {
          if (!lost.resolved && lost.seq == wseq && lost.val == val) {
            history.writes.push_back(RegWrite{ts, lost.start, kPendingEnd});
            ts_to_val.emplace(ts, val);
            lost.resolved = true;
            revealed = true;
            break;
          }
        }
      }
      if (!revealed) ++unknown_values;
      history.reads.push_back(rec.read);
    }
  }
  if (value_mismatches != 0) {
    findings.push_back("integrity: " + std::to_string(value_mismatches) +
                       " reads returned a value not written at their "
                       "timestamp");
  }
  if (unknown_values != 0) {
    findings.push_back("integrity: " + std::to_string(unknown_values) +
                       " reads returned a value no client ever wrote");
  }

  // Tallies.
  std::uint64_t writes_ok = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t proto_errors = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t max_acked = 0;
  int failed_clients = 0;
  std::vector<std::uint64_t> latencies;
  for (const ClientOut& out : outs) {
    reads_ok += out.reads.size();
    busy += out.busy;
    unavailable += out.unavailable_writes + out.unavailable_reads;
    timeouts += out.read_timeouts;
    for (const LostWrite& lost : out.lost_writes) {
      if (!lost.resolved) ++timeouts;
    }
    proto_errors += out.proto_errors;
    disconnects += out.disconnects;
    max_acked = std::max(max_acked, out.max_acked_ts);
    if (out.connect_failed) ++failed_clients;
    latencies.insert(latencies.end(), out.latencies_ns.begin(),
                     out.latencies_ns.end());
  }
  for (const ClientOut& out : outs) {
    for (const RegWrite& w : out.writes) {
      if (w.end != kPendingEnd) ++writes_ok;
    }
  }
  if (failed_clients != 0) {
    findings.push_back("connectivity: " + std::to_string(failed_clients) +
                       " clients could not (re)connect to the daemon");
  }
  if (proto_errors != 0) {
    findings.push_back("protocol: " + std::to_string(proto_errors) +
                       " responses of the wrong type for their request");
  }
  if (timeouts * 20 > total_ops) {  // > 5%
    findings.push_back("liveness: " + std::to_string(timeouts) + " of " +
                       std::to_string(total_ops) +
                       " ops got no response within " +
                       std::to_string(opt.op_timeout_ms) + "ms (> 5%)");
  }

  // Durability probe: with the full fleet back, a fresh read must see at
  // least the largest acknowledged write timestamp — through every
  // kill-9 cycle. (Also exercises batched reads' freshness end-to-end.)
  if (max_acked > 0) {
    ServerClient probe(client_config(opt, front_dir, 1000001));
    std::uint64_t seen_ts = 0;
    bool got = false;
    if (probe.connect(std::chrono::milliseconds(5000))) {
      std::uint64_t probe_seq = 0;
      for (int attempt = 0; attempt < 20 && !got; ++attempt) {
        if (!probe.send(make_read_req(1000001, ++probe_seq))) break;
        auto m = probe.recv(std::chrono::milliseconds(2000));
        if (m && m->op == probe_seq && m->type == MsgType::kReadOk) {
          seen_ts = m->ts;
          got = true;
        }
      }
    }
    if (!got) {
      findings.push_back("durability: the post-run probe read never "
                         "completed against a full fleet");
    } else if (seen_ts < max_acked) {
      findings.push_back("durability: probe read returned ts " +
                         std::to_string(seen_ts) +
                         " < largest acknowledged write ts " +
                         std::to_string(max_acked));
    }
  }
  progress.fetch_add(1);

  // Graceful server shutdown: SIGTERM -> drain -> stats file.
  fleet.sup().terminate(server_node, std::chrono::milliseconds(15000));
  fleet.sup().terminate_all(std::chrono::milliseconds(2000));
  const ServerStats st = parse_server_stats(stats_path);
  if (!st.found) {
    findings.push_back("telemetry: the daemon wrote no stats file (crashed "
                       "or SIGKILLed before drain)");
  } else if (!st.conservation_ok) {
    findings.push_back("telemetry: conservation violated (ops_received != "
                       "writes_ok + reads_ok + unavailable + busy)");
  }

  // Certification: funneled atomicity over the assembled history.
  const auto lin = compreg::lin::check_register_atomicity_funneled(history);
  if (!lin.ok) findings.push_back("linearizability: " + lin.violation);

  const double secs = std::chrono::duration<double>(t_end - t_start).count();
  const std::uint64_t completed = writes_ok + reads_ok + unavailable + busy;
  const double thr = secs > 0 ? static_cast<double>(completed) / secs : 0;
  const double p50 = percentile_us(latencies, 0.50);
  const double p99 = percentile_us(latencies, 0.99);
  const double p999 = percentile_us(latencies, 0.999);
  std::printf("history: writes=%" PRIu64 " reads=%" PRIu64
              " (unavailable %" PRIu64 ", busy %" PRIu64 ", timeouts %" PRIu64
              ", disconnects %" PRIu64 ")\n",
              static_cast<std::uint64_t>(history.writes.size()),
              static_cast<std::uint64_t>(history.reads.size()), unavailable,
              busy, timeouts, disconnects);
  std::printf("lin: %s\n", lin.ok ? "OK" : lin.violation.c_str());
  std::printf("telemetry conservation: %s\n",
              st.found && st.conservation_ok ? "OK" : "VIOLATION");
  std::printf("soak: %" PRIu64 " ops in %.2fs = %.0f ops/s, p50=%.0fus "
              "p99=%.0fus p999=%.0fus, batch mean=%.2f over %" PRIu64
              " rounds\n",
              completed, secs, thr, p50, p99, p999, st.batch_mean,
              st.batch_rounds);

  if (!opt.bench_json.empty()) {
    std::ostringstream row;
    row << "{\"experiment\": \"E20\", \"kind\": \"" << kind_name(opt.kind)
        << "\", \"clients\": " << opt.clients
        << ", \"write_pct\": " << opt.write_pct << ", \"ops\": " << completed
        << ", \"secs\": " << secs << ", \"throughput_ops_per_s\": " << thr
        << ", \"p50_us\": " << p50 << ", \"p99_us\": " << p99
        << ", \"p999_us\": " << p999 << ", \"writes_ok\": " << writes_ok
        << ", \"reads_ok\": " << reads_ok
        << ", \"unavailable\": " << unavailable << ", \"unavailable_rate\": "
        << (completed > 0
                ? static_cast<double>(unavailable) /
                      static_cast<double>(completed)
                : 0)
        << ", \"busy\": " << busy << ", \"timeouts\": " << timeouts
        << ", \"batch_occupancy_mean\": " << st.batch_mean
        << ", \"batch_rounds\": " << st.batch_rounds
        << ", \"kills\": " << opt.kills << "}";
    compreg::BenchRows rows;
    rows.add_text(row.str());
    if (!rows.write(opt.bench_json, "server")) return kExitViolation;
  }
  return verdict(opt, findings);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--replica")) {
    return run_replica_child(argc, argv);
  }

  Options opt;
  opt.artifact.tool = "compreg_loadgen";
  opt.artifact.path = "compreg_loadgen_failure.txt";
  const char* service_flag = nullptr;  // last service-only flag given
  std::string plan_text;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    const char* flag = argv[i];
    auto number = [&](std::uint64_t lo, std::uint64_t hi) {
      return parse_number(flag, next(flag), lo, hi);
    };
    if (!std::strcmp(flag, "--direct")) {
      opt.direct = true;
    } else if (!std::strcmp(flag, "--kill-majority")) {
      opt.kill_majority = true;
    } else if (!std::strcmp(flag, "--f")) {
      opt.f = static_cast<int>(number(1, compreg::net::kMaxF));
    } else if (!std::strcmp(flag, "--kind")) {
      opt.kind = parse_kind(next(flag));
    } else if (!std::strcmp(flag, "--base-port")) {
      opt.base_port = static_cast<int>(number(1, kMaxPort));
    } else if (!std::strcmp(flag, "--dir")) {
      opt.dir = next(flag);
    } else if (!std::strcmp(flag, "--plan")) {
      plan_text = next(flag);
    } else if (!std::strcmp(flag, "--clients")) {
      opt.clients = static_cast<int>(number(1, 1024));
    } else if (!std::strcmp(flag, "--ops")) {
      opt.ops = number(1, 1000000000);
    } else if (!std::strcmp(flag, "--kills")) {
      opt.kills = static_cast<int>(number(0, 1000));
    } else if (!std::strcmp(flag, "--seed")) {
      opt.seed = number(0, UINT64_MAX);
    } else if (!std::strcmp(flag, "--attempt-ms")) {
      opt.attempt_ms = static_cast<unsigned>(number(0, 60000));
    } else if (!std::strcmp(flag, "--max-attempts")) {
      opt.max_attempts = static_cast<unsigned>(number(1, 1000));
    } else if (!std::strcmp(flag, "--watchdog")) {
      opt.watchdog_sec = static_cast<unsigned>(number(0, 86400));
    } else if (!std::strcmp(flag, "--bench-json")) {
      opt.bench_json = next(flag);
    } else if (!std::strcmp(flag, "--out")) {
      opt.artifact.path = next(flag);
      if (!can_write(opt.artifact.path)) {
        std::fprintf(stderr, "cannot write --out %s\n",
                     opt.artifact.path.c_str());
        return kExitUsage;
      }
    } else if (!std::strcmp(flag, "--front-port")) {
      opt.front_port = static_cast<int>(number(1, kMaxPort));
      service_flag = flag;
    } else if (!std::strcmp(flag, "--write-pct")) {
      opt.write_pct = static_cast<unsigned>(number(0, 100));
      service_flag = flag;
    } else if (!std::strcmp(flag, "--max-inflight")) {
      opt.max_inflight = static_cast<std::uint32_t>(number(1, 1u << 20));
      service_flag = flag;
    } else if (!std::strcmp(flag, "--op-timeout-ms")) {
      opt.op_timeout_ms = static_cast<unsigned>(number(1, 600000));
      service_flag = flag;
    } else if (!std::strcmp(flag, "--server-bin")) {
      opt.server_bin = next(flag);
      service_flag = flag;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return kExitUsage;
    }
  }
  if (opt.direct && service_flag != nullptr) {
    std::fprintf(stderr, "%s does not apply with --direct\n", service_flag);
    return kExitUsage;
  }
  if (opt.kill_majority && !opt.direct) {
    std::fprintf(stderr, "--kill-majority needs --direct\n");
    return kExitUsage;
  }
  if (!plan_text.empty()) {
    std::string error;
    auto plan = NetFaultPlan::parse(plan_text, &error);
    if (!plan) {
      std::fprintf(stderr, "bad --plan: %s\n", error.c_str());
      return kExitUsage;
    }
    opt.plan = *std::move(plan);
  }
  if (opt.attempt_ms == 0) opt.attempt_ms = opt.direct ? 15 : 100;
  if (opt.server_bin.empty()) opt.server_bin = default_server_bin();
  bool made_tmp = false;
  if (opt.dir.empty()) {
    char tmpl[] = "/tmp/compreg-loadgen-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return kExitViolation;
    }
    opt.dir = made;
    made_tmp = true;
  }
  opt.artifact.config_line = config_line(opt);

  LiveState live;
  std::atomic<std::uint64_t> progress{0};
  const Options& opt_ref = opt;
  Watchdog watchdog(
      opt.watchdog_sec, opt.artifact, progress, live,
      [&opt_ref](std::uint64_t seed, const std::string&, const std::string&,
                 const std::string&) {
        Options replay = opt_ref;
        replay.seed = seed;
        return replay_command(replay);
      },
      nullptr);

  int rc = 0;
  if (!opt.direct) {
    rc = run_soak(opt, live, progress);
  } else if (!opt.bench_json.empty()) {
    rc = run_sweep(opt, progress);
  } else if (opt.kill_majority) {
    rc = run_kill_majority(opt, live, progress);
  } else {
    rc = run_direct(opt, live, progress);
  }
  if (made_tmp && rc == 0) {
    const std::string cmd = "rm -rf '" + opt.dir + "'";
    [[maybe_unused]] const int ignored = std::system(cmd.c_str());
  } else if (made_tmp) {
    std::printf("data dir kept for inspection: %s\n", opt.dir.c_str());
  }
  return rc;
}
