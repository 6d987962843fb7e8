// verify_schedules: schedule-space verification driver.
//
// Runs a chosen snapshot implementation under SimScheduler schedules,
// checks every execution's history against the Shrinking Lemma (and
// optionally the linearization-witness builder), and stops at the
// first failing execution with a replayable artifact. The
// protocol-conformance analyzer (src/analysis) observes every
// execution; with --conformance any finding fails the run exactly like
// a linearizability violation, and the artifact gains a parseable
// conformance dump. Two modes cover the same schedule space:
//
// Enumerating (the default) explores EVERY simulator schedule with
// dynamic partial-order reduction (sched/dpor.h): one representative
// execution per Mazurkiewicz trace plus dynamically discovered race
// reversals, pruned further by sleep sets. When the run prints
//
//   certified: all N schedules pass
//
// every reachable schedule of that configuration (under the given fault
// plan, if any) has been verified. If exploration was truncated — by
// --max-schedules or by --depth-bound — the run instead prints an
// explicit "BOUNDED, NOT CERTIFIED" banner: clean means nothing was
// found within the bound, not that nothing exists.
//
// Sampling (--iters N) runs N executions under random schedules, with
// seeds --seed, --seed+1, ... . --native swaps the simulator for
// stressed free-running threads, where the vector-clock race detector
// joins the ownership checker; --impl mw samples the multi-writer
// reduction on native threads (3 processes).
//
// Faults. --chaos / --crash-prob / --stall (permille) derive a
// crash/stall FaultPlan from an execution's seed, or --plan fixes one
// (grammar in docs/fault_model.md). For --impl net every base cell is
// an ABD quorum-replicated register on a SimNet of 2f+1 replicas, and
// --loss / --net-partition / --net-crash / --net-recover (permille;
// --chaos defaults them to 100/150/150/150) derive a NetFaultPlan the
// same way, or --net-plan fixes one (grammar in src/net/net_plan.h).
// Sampling derives fresh plans per execution; enumerating applies ONE
// plan, derived from --seed, to every explored schedule, certifying
// "all schedules under this plan" (hang plans are rejected there: every
// schedule would wedge). Crashed and quorum-starved (Unavailable)
// operations are recorded pending and checked with the crash-aware
// checkers. The durability auditor (src/net/durable_state.h) watches
// every net execution: a replica that acks before persisting or serves
// forgotten state is a finding, merged into the conformance report;
// --amnesia ack|rejoin seeds exactly those mutants.
//
// Enumeration reductions. --symmetry readers quotients the schedule
// space by permutations of the reader processes (procs C..C+R-1, which
// run identical programs on interchangeable state), cutting it by up
// to R!. Rejected when a fault plan targets a reader and for --impl net
// (reader endpoints seed their retry-jitter RNG by network node id, so
// reader programs are not step-isomorphic there). --covering (implied
// by --symmetry readers) gives each execution's Mazurkiewicz class a
// canonical signature and lets an already-analyzed class spawn no
// further race reversals: the certified claim is unchanged, and on
// register workloads it is the difference between thousands and
// millions of executions. --cross-validate re-runs the exploration
// unreduced and fails loudly if the two engines disagree on the
// verdict (tests/analysis/symmetry_cross_test.cpp proves identical
// violation sets on seeded mutants). --jobs N runs executions on N
// worker threads, each pinned to its own CPU (N is capped at the CPUs
// the process may use); exploration is deterministic by construction, so
// every statistic, banner and witness is byte-identical across --jobs
// values, and --certificate FILE writes a timing-free certificate whose
// bytes the suite diffs across --jobs 1/8. --schedule "0,1,1,0,..."
// replays ONE exact schedule (the artifact's "# schedule" line) instead
// of exploring.
//
// Every artifact ends with a "# replay: verify_schedules ..." line
// carrying the failing seed, the concrete plans in force and, when
// enumerating, the exact schedule, so reproducing a finding is one
// copy-paste. A watchdog turns a hung run — a wedged exploration, or a
// "hang:" plan that wedges the scheduler on purpose — into exit 2 with
// an artifact naming the in-flight seed, plans and schedule prefix and
// the conformance report as of the hang.
//
// Usage:
//   verify_schedules [--impl anderson|afek|unbounded|doublecollect
//                     |fullstack|seqlock|mutex|mw|net]
//       [--components N] [--readers N] [--ops N] [--seed N]
//       [--conformance] [--witness] [--out FILE] [--watchdog SECONDS]
//       [--chaos] [--crash-prob PERMILLE] [--stall PERMILLE] [--plan SPEC]
//       [--net-f F] [--loss PERMILLE] [--net-partition PERMILLE]
//       [--net-crash PERMILLE] [--net-recover PERMILLE] [--net-plan SPEC]
//       [--amnesia none|ack|rejoin]
//     enumerating: [--max-schedules N] [--depth-bound N]
//       [--symmetry off|readers] [--covering] [--cross-validate]
//       [--jobs N] [--certificate FILE] [--schedule CSV]
//     sampling: --iters N [--native]
//
// Defaults: enumerating C=2, ops=1, watchdog 120 s; sampling C=3,
// ops=10, watchdog 30 s; R=2 in both. A flag of the other mode exits 64.
// Exit codes: 0 = clean (certified, bounded-clean, or every sample);
// 1 = violation, conformance finding, witness failure or
// cross-validation mismatch (artifact written to --out); 2 = watchdog
// timeout; 64 = usage error, an --out path that cannot be opened
// (checked at startup), or a --certificate file that cannot be opened
// (checked before exploring) or written.
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/race.h"
#include "core/multi_writer.h"
#include "fault/fault_plan.h"
#include "fault/fault_policy.h"
#include "lin/dump.h"
#include "lin/shrinking_checker.h"
#include "lin/stats.h"
#include "lin/witness.h"
#include "lin/workload.h"
#include "net/replicated_register.h"
#include "sched/access.h"
#include "sched/dpor.h"
#include "sched/policy.h"
#include "util/rng.h"
#include "cli.h"
#include "verify_common.h"

namespace {

namespace analysis = compreg::analysis;
namespace fault = compreg::fault;
namespace lin = compreg::lin;
namespace net = compreg::net;
namespace sched = compreg::sched;
using compreg::tools::Artifact;
using compreg::tools::can_write;
using compreg::tools::kExitUsage;
using compreg::tools::kExitViolation;
using compreg::tools::LiveState;
using compreg::tools::make_impl;
using compreg::tools::parse_number;
using compreg::tools::usage_error;
using compreg::tools::Watchdog;
using compreg::tools::write_artifact;

// Caps that keep a typo from asking for thousands of threads: the
// simulator and the native runs start one thread per process.
constexpr std::uint64_t kMaxProcs = 64;
constexpr std::uint64_t kMaxJobs = 64;

struct Options {
  std::string impl = "anderson";
  int components = 0;  // 0 = the mode's default
  int readers = 2;
  int ops = 0;  // 0 = the mode's default
  std::uint64_t seed = 1;
  std::uint64_t iters = 0;  // 0 = enumerate; N = sample N executions
  bool native = false;
  bool conformance = false;
  bool witness = false;
  bool chaos = false;
  // Fault rates in permille; -1 = not set (--chaos picks defaults).
  long crash = -1;
  long stall = -1;
  long loss = -1;
  long partition = -1;
  long net_crash = -1;
  long recover = -1;
  std::string plan_text;
  std::string net_plan_text;
  int net_f = 1;
  std::string amnesia_text = "none";
  net::Amnesia amnesia = net::Amnesia::kNone;
  long watchdog = -1;  // -1 = the mode's default
  // Enumerating only; the first such flag given, for the mode check.
  const char* enumerating_flag = nullptr;
  std::uint64_t max_schedules = 1'000'000;
  int depth_bound = -1;
  std::string symmetry_text = "off";
  sched::SymmetrySpec symmetry;  // inactive by default
  bool covering = false;
  bool cross_validate = false;
  int jobs = 1;
  std::string certificate_path;
  std::string schedule_text;
  // Resolved by validate().
  std::optional<fault::FaultPlan> fixed_plan;
  std::optional<net::NetFaultPlan> fixed_net_plan;
  Artifact artifact;

  bool sampling() const { return iters > 0; }
  bool native_mode() const { return native || impl == "mw"; }
  bool process_faults() const {
    return crash > 0 || stall > 0 || fixed_plan.has_value();
  }
  bool net_faults() const {
    return impl == "net" && (loss > 0 || partition > 0 || net_crash > 0 ||
                             recover > 0 || fixed_net_plan.has_value());
  }
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for %s", flag);
      return argv[++i];
    };
    const auto number = [&](std::uint64_t lo, std::uint64_t hi) {
      return parse_number(flag, value(), lo, hi);
    };
    const auto count = [&](std::uint64_t hi) {
      return static_cast<int>(number(1, hi));
    };
    const auto permille = [&] { return static_cast<long>(number(0, 1000)); };
    const auto enumerating = [&] {
      if (o.enumerating_flag == nullptr) o.enumerating_flag = flag;
    };
    const std::string f = flag;
    if (f == "--impl") {
      o.impl = value();
    } else if (f == "--components") {
      o.components = count(kMaxProcs);
    } else if (f == "--readers") {
      o.readers = count(kMaxProcs);
    } else if (f == "--ops") {
      o.ops = count(1'000'000);
    } else if (f == "--seed") {
      o.seed = number(0, UINT64_MAX);
    } else if (f == "--iters") {
      o.iters = number(1, UINT64_MAX);
    } else if (f == "--native") {
      o.native = true;
    } else if (f == "--conformance") {
      o.conformance = true;
    } else if (f == "--witness") {
      o.witness = true;
    } else if (f == "--chaos") {
      o.chaos = true;
    } else if (f == "--crash-prob") {
      o.crash = permille();
    } else if (f == "--stall") {
      o.stall = permille();
    } else if (f == "--plan") {
      o.plan_text = value();
    } else if (f == "--net-f") {
      o.net_f = count(16);
    } else if (f == "--loss") {
      o.loss = permille();
    } else if (f == "--net-partition") {
      o.partition = permille();
    } else if (f == "--net-crash") {
      o.net_crash = permille();
    } else if (f == "--net-recover") {
      o.recover = permille();
    } else if (f == "--net-plan") {
      o.net_plan_text = value();
    } else if (f == "--amnesia") {
      o.amnesia_text = value();
    } else if (f == "--out") {
      o.artifact.path = value();
      if (!can_write(o.artifact.path)) {
        usage_error("cannot write --out %s", o.artifact.path.c_str());
      }
    } else if (f == "--watchdog") {
      o.watchdog = static_cast<long>(number(0, 1'000'000));
    } else if (f == "--max-schedules") {
      enumerating();
      o.max_schedules = number(1, UINT64_MAX);
    } else if (f == "--depth-bound") {
      enumerating();
      o.depth_bound = static_cast<int>(number(0, INT_MAX));
    } else if (f == "--symmetry") {
      enumerating();
      o.symmetry_text = value();
    } else if (f == "--covering") {
      enumerating();
      o.covering = true;
    } else if (f == "--cross-validate") {
      enumerating();
      o.cross_validate = true;
    } else if (f == "--jobs") {
      enumerating();
      o.jobs = count(kMaxJobs);
    } else if (f == "--certificate") {
      enumerating();
      o.certificate_path = value();
    } else if (f == "--schedule") {
      enumerating();
      o.schedule_text = value();
    } else {
      usage_error("unknown flag %s", flag);
    }
  }
  return o;
}

// The process and network fault plans of the execution with this
// seed: fixed by --plan / --net-plan, or derived from the seed alone,
// so --seed <seed> replays them. Sampling derives per execution,
// enumerating once from --seed.
struct Plans {
  fault::FaultPlan process;
  net::NetFaultPlan network;
};

Plans plans_for(const Options& o, std::uint64_t seed) {
  Plans p;
  if (o.fixed_plan) {
    p.process = *o.fixed_plan;
  } else if (o.crash > 0 || o.stall > 0) {
    compreg::Rng rng(seed ^ 0xfa0175ab5eedull);
    const std::uint64_t est_points = static_cast<std::uint64_t>(o.ops) * 16 + 8;
    p.process = fault::FaultPlan::random(
        rng, o.components + o.readers, est_points,
        static_cast<unsigned>(o.crash), static_cast<unsigned>(o.stall));
  }
  if (o.fixed_net_plan) {
    p.network = *o.fixed_net_plan;
  } else if (o.net_faults()) {
    compreg::Rng rng(seed ^ 0x6e65745f5eedull);
    // Network steps dwarf schedule points: each base-register op is a
    // broadcast plus a poll loop, and the composite construction issues
    // many base ops per operation.
    const std::uint64_t est_net_steps = static_cast<std::uint64_t>(o.ops) * 400;
    p.network = net::NetFaultPlan::random(
        rng, 2 * o.net_f + 1, est_net_steps, static_cast<unsigned>(o.loss),
        static_cast<unsigned>(o.partition), static_cast<unsigned>(o.net_crash),
        static_cast<unsigned>(o.recover));
  }
  return p;
}

// Fills in each mode's defaults and rejects every combination that does
// not fit, exiting 64.
void validate(Options& o) {
  if (o.sampling() && o.enumerating_flag != nullptr) {
    usage_error("%s belongs to schedule enumeration; it does not combine "
                "with --iters (sampling)",
                o.enumerating_flag);
  }
  if (!o.sampling() && o.native) {
    usage_error("--native samples free-running threads; it needs --iters");
  }
  if (o.components == 0) o.components = o.sampling() ? 3 : 2;
  if (o.ops == 0) o.ops = o.sampling() ? 10 : 1;
  // Each DPOR worker pins itself to a CPU of its own.
  o.jobs = sched::dpor_workers(o.jobs);
  if (o.watchdog < 0) o.watchdog = o.sampling() ? 30 : 120;
  if (o.impl != "mw" && o.impl != "net" && !make_impl(o.impl, 1, 1)) {
    usage_error("unknown impl '%s'", o.impl.c_str());
  }
  if (o.impl == "mw" && !o.sampling()) {
    usage_error("--impl mw is native-threads-only; DPOR explores the "
                "deterministic simulator (sample it with --iters)");
  }
  if (o.native && (o.impl == "fullstack" || o.impl == "net")) {
    usage_error("%s is simulator-only (its primitives rely on serialized "
                "steps)",
                o.impl.c_str());
  }
  if (o.impl != "net" &&
      (o.loss >= 0 || o.partition >= 0 || o.net_crash >= 0 ||
       o.recover >= 0 || !o.net_plan_text.empty() || o.net_f != 1 ||
       o.amnesia_text != "none")) {
    usage_error("network flags (--net-f/--loss/--net-partition/--net-crash/"
                "--net-recover/--net-plan/--amnesia) require --impl net");
  }
  if (o.amnesia_text == "ack") {
    o.amnesia = net::Amnesia::kAckBeforePersist;
  } else if (o.amnesia_text == "rejoin") {
    o.amnesia = net::Amnesia::kBlankRejoin;
  } else if (o.amnesia_text != "none") {
    usage_error("--amnesia takes none|ack|rejoin");
  }
  if (o.chaos && o.impl == "net") {
    // Network chaos: faults live in the transport, not the processes,
    // unless process faults are explicitly requested on top.
    if (o.loss < 0) o.loss = 100;
    if (o.partition < 0) o.partition = 150;
    if (o.net_crash < 0) o.net_crash = 150;
    if (o.recover < 0) o.recover = 150;
  } else if (o.chaos) {
    if (o.crash < 0) o.crash = 350;
    if (o.stall < 0) o.stall = 250;
  }
  for (long* rate : {&o.crash, &o.stall, &o.loss, &o.partition,
                     &o.net_crash, &o.recover}) {
    if (*rate < 0) *rate = 0;
  }
  if (!o.plan_text.empty()) {
    o.fixed_plan = fault::FaultPlan::parse(o.plan_text);
    if (!o.fixed_plan) {
      usage_error("unparsable --plan '%s'", o.plan_text.c_str());
    }
  }
  if (!o.net_plan_text.empty()) {
    o.fixed_net_plan = net::NetFaultPlan::parse(o.net_plan_text);
    if (!o.fixed_net_plan) {
      usage_error("unparsable --net-plan '%s'", o.net_plan_text.c_str());
    }
  }
  if (o.process_faults() && o.native_mode()) {
    usage_error("fault injection (--chaos/--crash-prob/--stall/--plan) "
                "requires the deterministic simulator (drop --native)");
  }
  if (o.sampling()) return;

  if (o.symmetry_text != "off" && o.symmetry_text != "readers") {
    usage_error("--symmetry takes off|readers");
  }
  if (o.symmetry_text == "readers") {
    o.symmetry.first = o.components;
    o.symmetry.count = o.readers;
    // R == 1 leaves the group trivial; class covering (identity orbit
    // dedup) is still sound and still prunes, so keep it on.
    o.covering = true;
  }
  if (o.symmetry.active() && o.impl == "net") {
    // Reader endpoints seed their retry-backoff jitter RNG by network
    // node id, so reader programs are NOT step-isomorphic over the
    // simulated network: permuting readers changes the executions.
    usage_error("--symmetry readers is unsound for --impl net with "
                "--readers >= 2 (per-node jitter seeding breaks reader "
                "interchangeability); certify net configs with --readers 1 "
                "and --jobs instead");
  }
  if (o.cross_validate && !o.symmetry.active()) {
    usage_error("--cross-validate compares the symmetry-reduced engine "
                "against the unreduced one; it needs --symmetry readers and "
                "--readers >= 2");
  }
  const fault::FaultPlan plan = plans_for(o, o.seed).process;
  if (!plan.hangs.empty()) {
    usage_error("hang plans cannot be explored (every schedule wedges); "
                "sample with --iters and --plan to exercise the watchdog");
  }
  // A plan that crashes or stalls a specific reader destroys the
  // readers' interchangeability; the engine would refuse too, but a
  // usage error is friendlier than a CHECK abort.
  bool targets_reader = false;
  for (const auto& c : plan.crashes) {
    targets_reader |= o.symmetry.member(c.proc);
  }
  for (const auto& s : plan.stalls) targets_reader |= o.symmetry.member(s.proc);
  if (targets_reader) {
    usage_error("--symmetry readers is unsound under a fault plan that "
                "targets a reader process (procs %d..%d); restrict the plan "
                "to writers or drop --symmetry",
                o.components, o.components + o.readers - 1);
  }
}

// The config line names everything that determines the executions —
// for enumeration, everything that determines the explored schedule
// set (--jobs deliberately excluded: it only buys wall-clock, and
// certificates must not depend on it).
std::string config_line(const Options& o, const Plans& plans) {
  std::ostringstream cfg;
  cfg << "impl=" << o.impl << " C=" << o.components << " R=" << o.readers;
  if (o.sampling()) {
    cfg << " iters=" << o.iters << " base_seed=" << o.seed
        << " ops=" << o.ops
        << " mode=" << (o.native_mode() ? "native" : "sim");
    if (o.impl == "net") {
      cfg << " f=" << o.net_f << " replicas=" << (2 * o.net_f + 1);
      if (o.net_faults()) {
        cfg << " loss=" << o.loss << " net-partition=" << o.partition
            << " net-crash=" << o.net_crash << " net-recover=" << o.recover;
        if (o.fixed_net_plan) {
          cfg << " net-plan=" << o.fixed_net_plan->to_string();
        }
      }
      if (o.amnesia != net::Amnesia::kNone) {
        cfg << " amnesia=" << o.amnesia_text;
      }
    }
    if (o.process_faults()) {
      cfg << " crash-prob=" << o.crash << " stall=" << o.stall;
      if (o.fixed_plan) cfg << " plan=" << o.fixed_plan->to_string();
    }
  } else {
    cfg << " ops=" << o.ops << " seed=" << o.seed
        << " max-schedules=" << o.max_schedules;
    if (o.depth_bound >= 0) cfg << " depth-bound=" << o.depth_bound;
    if (o.symmetry.active()) cfg << " symmetry=readers";
    if (o.covering) cfg << " +covering";
    if (o.impl == "net") {
      cfg << " f=" << o.net_f << " replicas=" << (2 * o.net_f + 1);
    }
    if (o.amnesia != net::Amnesia::kNone) cfg << " amnesia=" << o.amnesia_text;
    if (!plans.process.empty()) cfg << " plan=" << plans.process.to_string();
    if (!plans.network.empty()) {
      cfg << " net-plan=" << plans.network.to_string();
    }
  }
  if (o.conformance) cfg << " +conformance";
  if (!o.sampling() && o.witness) cfg << " +witness";
  return cfg.str();
}

// One copy-pasteable line that replays a single execution. The
// concrete plans (and, when enumerating, the exact schedule) are baked
// in, so derivation flags drop out.
std::string replay_line(const Options& o, std::uint64_t seed,
                        const std::string& plan, const std::string& net_plan,
                        const std::string& schedule) {
  std::ostringstream cmd;
  cmd << "verify_schedules --impl " << o.impl << " --components "
      << o.components << " --readers " << o.readers << " --ops " << o.ops
      << " --seed " << seed;
  if (o.sampling()) cmd << " --iters 1";
  if (o.native) cmd << " --native";
  if (o.conformance) cmd << " --conformance";
  if (o.witness) cmd << " --witness";
  if (o.impl == "net") cmd << " --net-f " << o.net_f;
  if (o.amnesia != net::Amnesia::kNone) cmd << " --amnesia " << o.amnesia_text;
  if (!plan.empty()) cmd << " --plan '" << plan << "'";
  if (!net_plan.empty()) cmd << " --net-plan '" << net_plan << "'";
  if (!schedule.empty()) cmd << " --schedule " << schedule;
  return cmd.str();
}

std::string schedule_csv(const std::vector<int>& schedule) {
  std::ostringstream out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i != 0) out << ',';
    out << schedule[i];
  }
  return out.str();
}

std::optional<std::vector<int>> parse_schedule(const std::string& text) {
  std::vector<int> out;
  std::istringstream in(text);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (tok.empty()) return std::nullopt;
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) return std::nullopt;
    out.push_back(static_cast<int>(v));
  }
  if (out.empty()) return std::nullopt;
  return out;
}

// Built fresh per simulated execution; members destroy in reverse
// order, so the recorder and snapshot go before the fabric whose SimNet
// the net cells reference.
struct RunCtx {
  // Drawn before anything else the scenario builds: findings name a
  // cell by its id minus this one, the scenario's own numbering from 1.
  // Sampling draws ids from the shared counter and enumeration from a
  // per-execution CellIdArena block, so absolute ids differ between the
  // modes; this offset does not.
  std::uint64_t cell_base = sched::new_cell_id();
  std::optional<net::ScopedNetFabric> fab;
  std::unique_ptr<compreg::core::Snapshot<std::uint64_t>> snap;
  std::shared_ptr<lin::HistoryRecorder> rec;
};

// Builds the implementation (over a fresh simulated network for --impl
// net) and spawns the standard workload into `sim`.
std::shared_ptr<RunCtx> spawn(const Options& o, sched::SimScheduler& sim,
                              std::uint64_t seed,
                              const net::NetFaultPlan& net_plan) {
  auto ctx = std::make_shared<RunCtx>();
  if (o.impl == "net") {
    net::NetConfig ncfg;
    ncfg.f = o.net_f;
    ncfg.amnesia = o.amnesia;
    ctx->fab.emplace(ncfg, net_plan, seed ^ 0x51b2e75eedull);
  }
  ctx->snap = make_impl(o.impl, o.components, o.readers);
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = o.ops;
  cfg.scans_per_reader = o.ops;
  ctx->rec = lin::spawn_sim_workload(sim, *ctx->snap, cfg);
  return ctx;
}

struct Verdict {
  const char* kind = nullptr;  // nullptr = the execution passed
  std::string detail;
};

// One finished execution: its history, the analyzer's report with the
// durability auditor's findings merged, and the verdict on both.
struct Execution {
  lin::History history;
  analysis::AnalysisReport report;
  Verdict verdict;
};

// Checks one execution: conformance findings (when --conformance gates
// them), then the Shrinking Lemma, then the linearization witness.
Execution check(const Options& o, lin::History history,
                const analysis::AnalysisSession& session,
                RunCtx* ctx) {
  Execution e;
  e.history = std::move(history);
  e.report = session.report();
  if (ctx != nullptr && ctx->fab) {
    e.report.merge_findings(ctx->fab->net().durable().report());
  }
  if (ctx != nullptr) {
    for (analysis::Finding& f : e.report.findings) {
      if (f.cell > ctx->cell_base) f.cell -= ctx->cell_base;
    }
  }
  if (o.conformance && !e.report.ok()) {
    e.verdict = {"conformance findings", e.report.findings.front().to_string()};
    return e;
  }
  const lin::CheckResult result = lin::check_shrinking_lemma(e.history);
  if (!result.ok) {
    e.verdict = {"violation", result.violation};
  } else if (o.witness) {
    const lin::Witness w = lin::build_linearization(e.history);
    if (!w.ok) e.verdict = {"witness failure", w.error};
  }
  return e;
}

// Runs one simulated execution under `base` (random when sampling,
// scripted when replaying a schedule) with the process plan applied.
Execution run_sim(const Options& o, sched::SchedulePolicy& base,
                  std::uint64_t seed, const Plans& plans,
                  analysis::AnalysisSession& session) {
  std::optional<fault::FaultInjectingPolicy> faulty;
  sched::SchedulePolicy* policy = &base;
  if (!plans.process.empty()) {
    faulty.emplace(base, plans.process);
    policy = &*faulty;
  }
  sched::SimScheduler sim(*policy);
  session.reset();
  const std::shared_ptr<RunCtx> ctx = spawn(o, sim, seed, plans.network);
  if (faulty) faulty->attach(sim);
  {
    sched::ScopedAccessObserver observe(&session);
    sim.run();
  }
  return check(o, ctx->rec->merge(), session, ctx.get());
}

// Runs one execution on free-running stressed threads (--native, or
// --impl mw with 3 writing processes).
Execution run_native(const Options& o, std::uint64_t seed,
                     analysis::AnalysisSession& session) {
  session.reset();
  lin::History h;
  {
    sched::ScopedAccessObserver observe(&session);
    if (o.impl == "mw") {
      compreg::core::MultiWriterSnapshot<std::uint64_t> snap(
          o.components, /*processes=*/3, o.readers, 0);
      lin::MwWorkloadConfig cfg;
      cfg.writes_per_process = o.ops;
      cfg.scans_per_reader = o.ops;
      cfg.stress_permille = 150;
      cfg.seed = seed;
      h = lin::run_native_workload_mw(snap, cfg);
    } else {
      auto snap = make_impl(o.impl, o.components, o.readers);
      lin::WorkloadConfig cfg;
      cfg.writes_per_writer = o.ops;
      cfg.scans_per_reader = o.ops;
      cfg.stress_permille = 150;
      cfg.seed = seed;
      h = lin::run_native_workload(*snap, cfg);
    }
  }
  return check(o, std::move(h), session, nullptr);
}

void add_counters(lin::ConformanceCounters& total,
                  const analysis::AnalysisReport& report) {
  const lin::ConformanceCounters& cc = report.counters;
  total.cells += cc.cells;
  total.swmr_cells += cc.swmr_cells;
  total.swsr_cells += cc.swsr_cells;
  total.mrmw_cells += cc.mrmw_cells;
  total.reads += cc.reads;
  total.writes += cc.writes;
  total.findings += report.findings.size();
}

// What the executions of one run share with each other and with the
// watchdog.
struct Run {
  Options o;
  // One analyzer session per DPOR worker (a sampling run has one): each
  // observes exactly its worker's executions, so parallel workers never
  // interleave their access streams.
  std::vector<std::unique_ptr<analysis::AnalysisSession>> sessions;
  std::atomic<std::uint64_t> progress{0};
  LiveState live;
  std::mutex totals_mu;
  lin::ConformanceCounters totals;
};

// Writes the artifact of a failing execution; returns exit code 1.
int save_failure(const Run& run, const Execution& e, std::uint64_t seed,
                 const Plans& plans, const std::string& schedule) {
  const std::string plan = plans.process.to_string();
  const std::string net_plan = plans.network.to_string();
  write_artifact(run.o.artifact, e.verdict.kind, seed, plan, net_plan,
                 schedule, replay_line(run.o, seed, plan, net_plan, schedule),
                 e.verdict.detail, &e.history, e.report.dump());
  return kExitViolation;
}

int sample(Run& run) {
  const Options& o = run.o;
  std::uint64_t pending_ops_seen = 0;
  for (std::uint64_t i = 0; i < o.iters; ++i) {
    const std::uint64_t seed = o.seed + i;
    const Plans plans = plans_for(o, seed);
    run.live.set(seed, plans.process.to_string(), plans.network.to_string());
    Execution e;
    if (o.native_mode()) {
      e = run_native(o, seed, *run.sessions[0]);
    } else {
      sched::RandomPolicy policy(seed);
      e = run_sim(o, policy, seed, plans, *run.sessions[0]);
    }
    add_counters(run.totals, e.report);
    if (e.verdict.kind != nullptr) {
      const unsigned long long s = seed;
      const bool conformance =
          std::strcmp(e.verdict.kind, "conformance findings") == 0;
      if (conformance) {
        std::printf("CONFORMANCE FINDINGS at seed %llu:\n%s", s,
                    e.report.text().c_str());
      } else {
        std::printf("%s at seed %llu: %s\n",
                    std::strcmp(e.verdict.kind, "violation") == 0
                        ? "VIOLATION"
                        : "WITNESS FAILURE",
                    s, e.verdict.detail.c_str());
      }
      if (!plans.process.empty()) {
        std::printf("fault plan: %s\n", plans.process.to_string().c_str());
      }
      if (!plans.network.empty()) {
        std::printf("net fault plan: %s\n", plans.network.to_string().c_str());
      }
      if (!conformance) {
        std::printf("# replayable history follows\n");
        lin::dump_history(e.history, std::cout);
      }
      return save_failure(run, e, seed, plans, std::string());
    }
    const lin::HistoryStats hs = lin::compute_stats(e.history);
    pending_ops_seen += hs.pending_writes + hs.pending_reads;
    run.progress.fetch_add(1);
    if ((i + 1) % 50 == 0) {
      std::printf("  %llu/%llu clean\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(o.iters));
    }
  }
  const unsigned long long iters = o.iters;
  if (o.process_faults() || o.net_faults()) {
    std::printf("all %llu executions linearizable (%llu crashed/unavailable "
                "ops recorded pending)\n",
                iters, static_cast<unsigned long long>(pending_ops_seen));
  } else {
    std::printf("all %llu executions linearizable\n", iters);
  }
  if (o.conformance) {
    std::printf("conformance totals: %s\n", run.totals.summary().c_str());
  }
  return 0;
}

const char* verdict_name(const sched::DporResult& r) {
  if (!r.ok) return "violation";
  return r.certified() ? "certified" : "bounded-clean";
}

int enumerate(Run& run) {
  const Options& o = run.o;
  // ONE plan for the whole exploration: fixed, or derived once from the
  // seed with the derivation sampling uses per execution (so seeds
  // transfer between the modes).
  const Plans plans = plans_for(o, o.seed);
  const std::string plan_str = plans.process.to_string();
  const std::string net_plan_str = plans.network.to_string();
  const auto worker_session = [&run]() -> analysis::AnalysisSession& {
    return *run.sessions[static_cast<std::size_t>(sched::dpor_worker_id())];
  };

  // One fresh scenario instance per explored execution; the returned
  // verifier checks that execution's history.
  const sched::DporScenario scenario = [&](sched::SimScheduler& sim) {
    worker_session().reset();
    const std::shared_ptr<RunCtx> ctx = spawn(o, sim, o.seed, plans.network);
    return [&, ctx]() -> bool {
      const Execution e =
          check(o, ctx->rec->merge(), worker_session(), ctx.get());
      std::lock_guard<std::mutex> lock(run.totals_mu);
      add_counters(run.totals, e.report);
      return e.verdict.kind == nullptr;
    };
  };

  // Replays one exact schedule on the main thread (worker id 0): the
  // --schedule mode, and the artifact for a failing exploration's
  // canonical witness.
  const auto run_schedule = [&](const std::vector<int>& script) {
    sched::ScriptPolicy policy(script);
    Execution e = run_sim(o, policy, o.seed, plans, *run.sessions[0]);
    run.progress.fetch_add(1);
    return e;
  };

  if (!o.schedule_text.empty()) {
    const auto script = parse_schedule(o.schedule_text);
    if (!script) {
      usage_error("unparsable --schedule '%s'", o.schedule_text.c_str());
    }
    run.live.set(o.seed, plan_str, net_plan_str, o.schedule_text);
    const Execution e = run_schedule(*script);
    if (e.verdict.kind != nullptr) {
      std::printf("REPLAY FAILED (%s): %s\n", e.verdict.kind,
                  e.verdict.detail.c_str());
      lin::dump_history(e.history, std::cout);
      return save_failure(run, e, o.seed, plans, o.schedule_text);
    }
    std::printf("replayed schedule passes (%zu scripted steps)\n",
                script->size());
    return 0;
  }

  // Opened before the exploration, so a path that cannot be written
  // fails in milliseconds, not after the run.
  std::ofstream cert;
  if (!o.certificate_path.empty()) {
    cert.open(o.certificate_path);
    if (!cert) {
      usage_error("cannot write --certificate %s", o.certificate_path.c_str());
    }
  }

  const auto explore = [&](const sched::SymmetrySpec& sym,
                           bool cover) -> sched::DporResult {
    sched::DporOptions opts;
    opts.max_schedules = o.max_schedules;
    opts.depth_bound = o.depth_bound;
    opts.plan = plans.process;
    opts.symmetry = sym;
    opts.class_covering = cover;
    opts.jobs = o.jobs;
    opts.tee_for_worker = [&](int w) -> sched::AccessObserver* {
      return run.sessions[static_cast<std::size_t>(w)].get();
    };
    opts.on_execution = [&](const std::vector<int>& prefix,
                            std::uint64_t done) {
      run.live.set(o.seed, plan_str, net_plan_str, schedule_csv(prefix));
      run.progress.store(done + 1);
      if (done > 0 && done % 20000 == 0) {
        std::printf("  %llu schedules explored...\n",
                    static_cast<unsigned long long>(done));
        std::fflush(stdout);
      }
    };
    return sched::explore_dpor(scenario, opts);
  };

  const auto t0 = std::chrono::steady_clock::now();
  const sched::DporResult result = explore(o.symmetry, o.covering);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& st = result.stats;

  // Reduction report: the naive bound is astronomically large in
  // general, so report both it and the reduction factor in log10.
  const double explored_log10 =
      st.schedules > 0 ? std::log10(static_cast<double>(st.schedules)) : 0.0;
  std::printf("  schedules explored: %llu\n",
              static_cast<unsigned long long>(st.schedules));
  std::printf("  naive enumeration bound: ~10^%.1f (reduction ~10^%.1f)\n",
              st.naive_log10, st.naive_log10 - explored_log10);
  std::printf(
      "  backtrack points: %llu, sleep-set prunes: %llu, max points: %llu\n",
      static_cast<unsigned long long>(st.backtrack_points),
      static_cast<unsigned long long>(st.sleep_set_hits),
      static_cast<unsigned long long>(st.max_points));
  if (o.symmetry.active()) {
    std::printf("  symmetry remaps: %llu\n",
                static_cast<unsigned long long>(st.symmetry_remaps));
  }
  if (o.symmetry.active() || o.covering) {
    std::printf("  orbit hits (covered classes skipped): %llu\n",
                static_cast<unsigned long long>(st.orbit_hits));
  }
  std::printf("  wall time: %.2f s (%llu waves, %d worker%s)\n", wall,
              static_cast<unsigned long long>(st.waves), o.jobs,
              o.jobs == 1 ? "" : "s");
  if (o.conformance) {
    std::printf("conformance totals: %s\n", run.totals.summary().c_str());
  }

  if (cert.is_open()) {
    // Timing-free and jobs-free by construction: byte-identical across
    // --jobs values for the same configuration (the suite diffs this).
    cert << "# " << o.artifact.tool << " certificate\n"
         << "# " << o.artifact.config_line << "\n"
         << "verdict: " << verdict_name(result) << "\n"
         << "schedules: " << st.schedules << "\n"
         << "backtrack_points: " << st.backtrack_points << "\n"
         << "sleep_set_hits: " << st.sleep_set_hits << "\n"
         << "symmetry_remaps: " << st.symmetry_remaps << "\n"
         << "orbit_hits: " << st.orbit_hits << "\n"
         << "waves: " << st.waves << "\n"
         << "max_points: " << st.max_points << "\n";
    if (!result.ok) {
      cert << "violation_schedule: " << schedule_csv(result.violation_schedule)
           << "\n";
    }
    cert.close();
    if (!cert) {
      std::fprintf(stderr, "failed writing --certificate %s\n",
                   o.certificate_path.c_str());
      // A violation still reports below, and exits non-zero there.
      if (result.ok) return kExitUsage;
    }
  }

  if (!result.ok) {
    // Regenerate the failure from the engine's canonical witness: with
    // --jobs > 1 the first failure a worker observed may be a different
    // schedule, and the artifact must match its "# schedule" line.
    const Execution e = run_schedule(result.violation_schedule);
    if (e.verdict.kind == nullptr) {
      std::fprintf(stderr,
                   "internal error: witness schedule passed on replay\n");
    }
    const char* kind = e.verdict.kind != nullptr ? e.verdict.kind : "violation";
    const std::string sched = schedule_csv(result.violation_schedule);
    std::printf("SCHEDULE-SPACE %s: %s\n",
                std::strcmp(kind, "violation") == 0 ? "VIOLATION" : kind,
                e.verdict.detail.c_str());
    std::printf("failing schedule: %s\n", sched.c_str());
    if (!plan_str.empty()) {
      std::printf("fault plan: %s\n", plan_str.c_str());
    }
    std::printf("# replayable history follows\n");
    lin::dump_history(e.history, std::cout);
    return save_failure(run, e, o.seed, plans, sched);
  }

  if (o.cross_validate) {
    // Soundness check: the unreduced engine over the same configuration
    // must reach the same verdict. (Identical violation *sets* on
    // seeded mutants are proved by tests/analysis/symmetry_cross_test;
    // here the reduced run was clean, so the unreduced one must be
    // too.) The unreduced space is up to R! larger — budget-capped runs
    // may legitimately hit max-schedules, which still cross-validates
    // as long as nothing in the larger explored set fails.
    std::printf("cross-validating against the unreduced engine...\n");
    const sched::DporResult unreduced = explore(sched::SymmetrySpec{}, false);
    std::printf("  unreduced schedules: %llu (reduced: %llu, factor %.2fx)\n",
                static_cast<unsigned long long>(unreduced.stats.schedules),
                static_cast<unsigned long long>(st.schedules),
                st.schedules > 0
                    ? static_cast<double>(unreduced.stats.schedules) /
                          static_cast<double>(st.schedules)
                    : 0.0);
    if (!unreduced.ok) {
      const Execution e = run_schedule(unreduced.violation_schedule);
      std::printf(
          "SYMMETRY CROSS-VALIDATION FAILED: reduced engine certified "
          "clean but the unreduced engine found: %s\nfailing schedule: "
          "%s\n(canonical form: %s)\n",
          e.verdict.detail.c_str(),
          schedule_csv(unreduced.violation_schedule).c_str(),
          schedule_csv(sched::canonical_schedule(unreduced.violation_schedule,
                                                 o.symmetry))
              .c_str());
      return kExitViolation;
    }
    if (unreduced.certified() != result.certified()) {
      // Reduced certified but unreduced truncated (or vice versa) is
      // a budget artifact, not a soundness failure — say so.
      std::printf(
          "  note: verdicts are %s (reduced) vs %s (unreduced); the "
          "engines agree nothing fails in the explored space\n",
          verdict_name(result), verdict_name(unreduced));
    } else {
      std::printf("cross-validation OK: both engines report %s\n",
                  verdict_name(result));
    }
  }

  if (result.certified()) {
    std::printf("certified: all %llu schedules pass%s\n",
                static_cast<unsigned long long>(st.schedules),
                o.symmetry.active() ? " (up to reader permutation)" : "");
  } else {
    std::printf(
        "BOUNDED, NOT CERTIFIED: exploration truncated (%s%s%s); clean "
        "within the bound, but unexplored schedules remain\n",
        st.exhausted ? "" : "max-schedules reached",
        (!st.exhausted && st.depth_limited) ? ", " : "",
        st.depth_limited ? "race reversal beyond depth bound" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  run.o = parse_args(argc, argv);
  validate(run.o);
  Options& o = run.o;
  const Plans plans = plans_for(o, o.seed);
  o.artifact.config_line = config_line(o, plans);
  std::printf("verify_schedules: %s%s\n", o.artifact.config_line.c_str(),
              o.sampling() && o.witness ? " +witness" : "");
  if (o.jobs > 1) std::printf("  workers: %d\n", o.jobs);

  // The ownership checker runs in every mode; the happens-before race
  // detector only on free-running threads (the simulator serializes
  // execution, so racing there is what the ownership rules cover). The
  // analyzer observes EVERY execution, not just under --conformance, so
  // a watchdog artifact always carries the report of the hang.
  for (int w = 0; w < o.jobs; ++w) {
    run.sessions.push_back(
        std::make_unique<analysis::AnalysisSession>(o.native_mode()));
  }
  run.live.set(o.seed, plans.process.to_string(), plans.network.to_string());
  Watchdog watchdog(
      static_cast<unsigned>(o.watchdog), o.artifact, run.progress, run.live,
      [&o](std::uint64_t seed, const std::string& plan,
           const std::string& net_plan, const std::string& schedule) {
        return replay_line(o, seed, plan, net_plan, schedule);
      },
      [&run] { return run.sessions[0]->report().dump(); });
  return o.sampling() ? sample(run) : enumerate(run);
}
