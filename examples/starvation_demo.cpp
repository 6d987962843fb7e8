// Starvation demo: why "collect until stable" is not wait-free, and
// why the paper's construction is.
//
// One aggressive writer updates continuously. A double-collect scanner
// must observe two identical collects to return — under sustained
// writes it retries over and over. The composite-register scanner takes
// exactly TR(C,R) base-register steps, no matter what the writer does.
// We run both against the same deterministic adversarial schedule (the
// simulator rations the scanner to one step per N writer steps, and the
// writer never stops while the scanner runs), so the contrast is exact:
// the double-collect scan is cut off after kScanBound of its own steps
// and reported as not returned. Then once more on free-running native
// threads, counting every native composite scan. Exits 1 if a
// double-collect scan returns against the never-stopping writer, or if
// any composite scan costs other than TR(2,1).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "baselines/double_collect.h"
#include "core/composite_register.h"
#include "sched/policy.h"
#include "sched/schedule_point.h"
#include "sched/sim_scheduler.h"
#include "util/op_counter.h"

namespace {

// The simulated scan's budget, in its own base-register steps.
constexpr std::uint64_t kScanBound = 1000;

struct ScanOutcome {
  bool returned = false;
  std::uint64_t cost = 0;  // base-register steps the scan took
};

// The writer updates until the scanner's process ends; the scanner
// parks (sched::park_after) after kScanBound steps if its scan has not
// returned by then.
template <typename Snap>
ScanOutcome scan_under_adversary(Snap& snap, int period) {
  compreg::sched::RationPolicy policy(/*victim=*/1, period);
  compreg::sched::SimScheduler sim(policy);
  ScanOutcome outcome;
  // Plain flag: the simulator runs one process at a time and its
  // handoffs order every access.
  bool scanner_done = false;
  sim.spawn([&] {
    for (std::uint64_t i = 1; !scanner_done; ++i) snap.update(0, i);
  });
  sim.spawn([&] {
    compreg::OpWindow win;
    std::vector<compreg::core::Item<std::uint64_t>> out;
    compreg::sched::park_after(kScanBound);
    try {
      snap.scan_items(0, out);
      outcome.returned = true;
    } catch (const compreg::sched::ProcessParked&) {
    }
    outcome.cost = win.delta().total();
    scanner_done = true;
  });
  sim.run();
  return outcome;
}

}  // namespace

int main() {
  using Composite = compreg::core::CompositeRegister<std::uint64_t>;
  const std::uint64_t tr = Composite::read_cost(2, 1);
  int deviations = 0;
  std::printf("deterministic adversary: scanner gets 1 step per N writer "
              "steps, writer never stops (C=2)\n");
  std::printf("%6s %34s %24s\n", "N", "double-collect scan ops",
              "composite-register ops");
  for (int period : {2, 8, 32}) {
    compreg::baselines::DoubleCollectSnapshot<std::uint64_t> dc(2, 1, 0);
    Composite cr(2, 1, 0);
    const ScanOutcome dc_scan = scan_under_adversary(dc, period);
    const ScanOutcome cr_scan = scan_under_adversary(cr, period);
    if (dc_scan.returned) ++deviations;
    if (!cr_scan.returned || cr_scan.cost != tr) ++deviations;
    char dc_text[64];
    if (dc_scan.returned) {
      std::snprintf(dc_text, sizeof dc_text, "returned after %llu",
                    static_cast<unsigned long long>(dc_scan.cost));
    } else {
      std::snprintf(dc_text, sizeof dc_text, "did not return within %llu",
                    static_cast<unsigned long long>(kScanBound));
    }
    std::printf("%6d %34s %24llu\n", period, dc_text,
                static_cast<unsigned long long>(cr_scan.cost));
  }
  std::printf("(against a writer that never stops, the double-collect scan "
              "never returns; the composite register column is the "
              "constant TR(2,1) = %llu)\n\n",
              static_cast<unsigned long long>(tr));

  std::printf("native threads, 200 ms of continuous writes:\n");
  {
    compreg::baselines::DoubleCollectSnapshot<std::uint64_t> dc(2, 1, 0);
    Composite cr(2, 1, 0);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        dc.update(0, ++i);
        cr.update(0, i);
      }
    });
    std::vector<compreg::core::Item<std::uint64_t>> out;
    std::uint64_t dc_scans = 0, cr_scans = 0;
    std::uint64_t cr_min = ~std::uint64_t{0}, cr_max = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < deadline) {
      dc.scan_items(0, out);
      ++dc_scans;
      const compreg::OpWindow win;
      cr.scan_items(0, out);
      const std::uint64_t cost = win.delta().total();
      cr_min = std::min(cr_min, cost);
      cr_max = std::max(cr_max, cost);
      ++cr_scans;
    }
    stop.store(true);
    writer.join();
    if (cr_min != tr || cr_max != tr) ++deviations;
    std::printf("  double-collect: %llu scans, worst scan made %llu "
                "collects\n",
                static_cast<unsigned long long>(dc_scans),
                static_cast<unsigned long long>(dc.stats(0).max_collects));
    std::printf("  composite reg : %llu scans, %llu..%llu base ops each "
                "(TR(2,1) = %llu)\n",
                static_cast<unsigned long long>(cr_scans),
                static_cast<unsigned long long>(cr_min),
                static_cast<unsigned long long>(cr_max),
                static_cast<unsigned long long>(tr));
  }
  if (deviations != 0) {
    std::printf("DEVIATION: %d row(s): a double-collect scan returned "
                "against the never-stopping writer, or a composite scan "
                "differs from TR(2,1)\n",
                deviations);
    return 1;
  }
  return 0;
}
