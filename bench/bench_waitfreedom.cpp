// E5 — Wait-freedom vs lock-freedom under writer pressure (the paper's
// Wait-Freedom restriction, Section 2).
//
// Part 1 (deterministic adversary): a simulated scheduler rations the
// scanner to one step per P writer steps. The double-collect scanner's
// cost grows without bound as pressure rises; the helping scanners stay
// within their proven round bounds; the Anderson scanner takes exactly
// TR(C,R) steps no matter what.
//
// Part 2 (native free-running): W writer threads hammer while one
// scanner thread scans; we report max collects/attempts per scan for
// the retry-based implementations.
//
// Part 3 (E12, halting failures): fault::crash_sweep crash-stops every
// process at every one of its schedule points and certifies each
// faulty history: the Shrinking Lemma for every implementation, and
// for Anderson's also that the survivors finish within TR/TW.
//
// Exits 1 if an Anderson scan costs anything but TR(2,1) or the sweep
// finds a failure.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/afek_snapshot.h"
#include "baselines/double_collect.h"
#include "baselines/seqlock_snapshot.h"
#include "baselines/unbounded_helping.h"
#include "core/composite_register.h"
#include "fault/chaos.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"
#include "util/bench_json.h"
#include "util/op_counter.h"

namespace {

using namespace compreg;  // NOLINT: bench-local brevity

// JSON rows accumulated across the parts for --json emission; each
// entry is one complete {"experiment":"E5",...} object.
BenchRows g_rows;

// Deviations from the paper's claims; main() exits 1 if any.
int g_violations = 0;

template <typename Snap>
std::uint64_t adversary_scan_ops(Snap& snap, int writer_iters, int period) {
  sched::RationPolicy policy(/*victim=*/1, period);
  sched::SimScheduler sim(policy);
  std::uint64_t ops = 0;
  sim.spawn([&] {
    for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(writer_iters);
         ++i) {
      snap.update(0, i);
      snap.update(1, i);
    }
  });
  sim.spawn([&] {
    OpWindow win;
    std::vector<core::Item<std::uint64_t>> out;
    snap.scan_items(0, out);
    ops = win.delta().total();
  });
  sim.run();
  return ops;
}

void part1() {
  std::printf("-- Part 1: deterministic adversary (C=2, scanner rationed "
              "to 1 step per P writer steps) --\n");
  std::printf("%6s %18s %18s %14s %14s\n", "P", "double-collect ops",
              "(unbounded!)", "helping ops", "anderson ops");
  for (int period : {2, 4, 8, 16, 32}) {
    baselines::DoubleCollectSnapshot<std::uint64_t> dc(2, 1, 0);
    const std::uint64_t dc_ops = adversary_scan_ops(dc, 2000, period);
    baselines::UnboundedHelpingSnapshot<std::uint64_t> uh(2, 1, 0);
    const std::uint64_t uh_ops = adversary_scan_ops(uh, 2000, period);
    core::CompositeRegister<std::uint64_t> an(2, 1, 0);
    const std::uint64_t an_ops = adversary_scan_ops(an, 2000, period);
    if (an_ops != core::CompositeRegister<std::uint64_t>::read_cost(2, 1)) {
      ++g_violations;
    }
    std::printf("%6d %18" PRIu64 " %18s %14" PRIu64 " %14" PRIu64 "\n",
                period, dc_ops,
                dc_ops > 100 ? "grows with P" : "", uh_ops, an_ops);
    g_rows.add("{\"experiment\":\"E5\",\"part\":\"adversary\",\"period\":%d,"
        "\"double_collect_ops\":%" PRIu64 ",\"helping_ops\":%" PRIu64
        ",\"anderson_ops\":%" PRIu64 "}",
        period, dc_ops, uh_ops, an_ops);
  }
  std::printf("(anderson = TR(2,1) = %" PRIu64 " exactly, every time)\n\n",
              core::CompositeRegister<std::uint64_t>::read_cost(2, 1));
}

void part2() {
  std::printf("-- Part 2: native threads, 1 scanner vs W writers "
              "(C = W, 300 ms per cell) --\n");
  std::printf("%4s %22s %22s %22s\n", "W", "double-collect max",
              "seqlock max attempts", "afek scans (bounded)");
  for (int w : {1, 2, 4, 8}) {
    const int c = w;
    baselines::DoubleCollectSnapshot<std::uint64_t> dc(c, 1, 0);
    baselines::SeqlockSnapshot<std::uint64_t> sq(c, 1, 0);
    baselines::AfekSnapshot<std::uint64_t> af(c, 1, 0);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int k = 0; k < w; ++k) {
      writers.emplace_back([&, k] {
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          dc.update(k, ++i);
          sq.update(k, i);
          af.update(k, i);
        }
      });
    }
    std::vector<core::Item<std::uint64_t>> out;
    std::uint64_t afek_scans = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < deadline) {
      dc.scan_items(0, out);
      sq.scan_items(0, out);
      af.scan_items(0, out);  // CHECKs its own round bound internally
      ++afek_scans;
    }
    stop.store(true);
    for (auto& t : writers) t.join();
    std::printf("%4d %22" PRIu64 " %22" PRIu64 " %22" PRIu64 "\n", w,
                dc.stats(0).max_collects, sq.stats(0).max_attempts,
                afek_scans);
    g_rows.add("{\"experiment\":\"E5\",\"part\":\"native\",\"writers\":%d,"
        "\"double_collect_max\":%" PRIu64 ",\"seqlock_max_attempts\":%" PRIu64
        ",\"afek_scans\":%" PRIu64 "}",
        w, dc.stats(0).max_collects, sq.stats(0).max_attempts, afek_scans);
  }
  std::printf("(afek column counts completed scans: every one stayed "
              "within its C+1 round bound or the run would have "
              "aborted)\n");
}

// One crash sweep of a C=2, R=1 `Snap` under round-robin; bounds of 0
// certify safety only (the baselines claim no TR/TW).
template <typename Snap>
void crash_sweep_row(const char* impl, std::uint64_t read_bound,
                     std::uint64_t write_bound) {
  fault::CrashSweepConfig cfg;
  cfg.make_snapshot = [] { return std::make_unique<Snap>(2, 1, 0); };
  cfg.make_policy = [] {
    return std::make_unique<sched::RoundRobinPolicy>();
  };
  cfg.workload.writes_per_writer = 6;
  cfg.workload.scans_per_reader = 1;
  cfg.read_bound = read_bound;
  cfg.write_bound = write_bound;
  const fault::CrashSweepResult r = fault::crash_sweep(cfg);
  std::printf("%20s %8" PRIu64 " %12" PRIu64 " %12" PRIu64 "   %s\n", impl,
              r.runs, r.read_cost_min, r.read_cost_max,
              !r.ok()            ? "FAILED"
              : read_bound != 0 ? "shrinking + TR/TW"
                                : "shrinking");
  for (const fault::SweepFailure& f : r.failures) {
    std::printf("    plan %s: %s\n", f.plan.to_string().c_str(),
                f.reason.c_str());
  }
  g_violations += static_cast<int>(r.failures.size());
  g_rows.add("{\"experiment\":\"E5\",\"part\":\"crash-sweep\","
             "\"impl\":\"%s\",\"runs\":%" PRIu64 ",\"min_ops\":%" PRIu64
             ",\"max_ops\":%" PRIu64 ",\"certified\":%s}",
             impl, r.runs, r.read_cost_min, r.read_cost_max,
             r.ok() ? "true" : "false");
  if (read_bound != 0) {
    const bool exact = r.read_cost_min == read_bound &&
                       r.read_cost_max == read_bound;
    if (!exact) ++g_violations;
    std::printf("(%s min == max == TR(2,1) = %" PRIu64
                ": the scan costs exactly TR no matter who dies where%s)\n",
                impl, read_bound, exact ? "" : " -- VIOLATED");
  }
}

void part3() {
  using Reg = core::CompositeRegister<std::uint64_t>;
  std::printf("-- Part 3: crash sweep (C=2, R=1, round-robin; every "
              "process crash-stopped at every one of its schedule points; "
              "cost of every completed Read; certified per history) --\n");
  std::printf("%20s %8s %12s %12s   %s\n", "impl", "runs", "min ops",
              "max ops", "certified");
  crash_sweep_row<baselines::DoubleCollectSnapshot<std::uint64_t>>(
      "double-collect", 0, 0);
  crash_sweep_row<baselines::UnboundedHelpingSnapshot<std::uint64_t>>(
      "unbounded-helping", 0, 0);
  crash_sweep_row<Reg>("anderson", Reg::read_cost(2, 1),
                       Reg::write_cost(2, 1));
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  std::printf("E5: wait-freedom under writer pressure\n\n");
  part1();
  part2();
  part3();
  if (json_path && !g_rows.write(json_path, "waitfreedom")) return 1;
  if (g_violations != 0) {
    std::printf("%d deviation(s) from the paper's claims\n", g_violations);
    return 1;
  }
  return 0;
}
