// Starvation demo: why "collect until stable" is not wait-free, and
// why the paper's construction is.
//
// One aggressive writer updates continuously. A double-collect scanner
// must observe two identical collects to return — under sustained
// writes it retries over and over. The composite-register scanner takes
// exactly TR(C,R) base-register steps, no matter what the writer does.
// We run both against the same deterministic adversarial schedule (the
// simulator rations the scanner to one step per N writer steps) so the
// contrast is exact, then once more on free-running native threads,
// counting every native composite scan. Exits 1 if any composite scan
// costs other than TR(2,1).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "baselines/double_collect.h"
#include "core/composite_register.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"
#include "util/op_counter.h"

namespace {

template <typename Snap>
std::uint64_t scan_cost_under_adversary(Snap& snap, int period) {
  compreg::sched::RationPolicy policy(/*victim=*/1, period);
  compreg::sched::SimScheduler sim(policy);
  std::uint64_t cost = 0;
  sim.spawn([&] {
    for (std::uint64_t i = 1; i <= 4000; ++i) snap.update(0, i);
  });
  sim.spawn([&] {
    compreg::OpWindow win;
    std::vector<compreg::core::Item<std::uint64_t>> out;
    snap.scan_items(0, out);
    cost = win.delta().total();
  });
  sim.run();
  return cost;
}

}  // namespace

int main() {
  using Composite = compreg::core::CompositeRegister<std::uint64_t>;
  const std::uint64_t tr = Composite::read_cost(2, 1);
  int deviations = 0;
  std::printf("deterministic adversary: scanner gets 1 step per N writer "
              "steps (C=2)\n");
  std::printf("%6s %24s %24s\n", "N", "double-collect scan ops",
              "composite-register ops");
  for (int period : {2, 8, 32}) {
    compreg::baselines::DoubleCollectSnapshot<std::uint64_t> dc(2, 1, 0);
    Composite cr(2, 1, 0);
    const std::uint64_t cr_cost = scan_cost_under_adversary(cr, period);
    if (cr_cost != tr) ++deviations;
    std::printf("%6d %24llu %24llu\n", period,
                static_cast<unsigned long long>(
                    scan_cost_under_adversary(dc, period)),
                static_cast<unsigned long long>(cr_cost));
  }
  std::printf("(the double-collect column scales with writer pressure — "
              "with an infinite writer it never returns; the composite "
              "register column is the constant TR(2,1) = %llu)\n\n",
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
    std::printf("DEVIATION: %d composite-register row(s) differ from "
                "TR(2,1)\n",
                deviations);
    return 1;
  }
  return 0;
}
