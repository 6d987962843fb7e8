// E10 — Helping rate: how often does the construction's central trick
// fire? (Section 4.1's three-case analysis / Figure 4.)
//
// Statement 8 of the Reader decides among: (1) adopt an overlapping
// 0-Write's embedded snapshot (cases 1 and 2 — "helping"), (3) keep the
// first collect, (4) keep the second collect. We measure the branch
// distribution as a function of writer pressure, on the deterministic
// scheduler (exact) and on free-running threads. The writer keeps
// writing until the scanner's last scan returns, so every simulator row
// measures a starved scanner. Exits 1 if the simulator rows or the idle
// row contradict the shape printed at the end.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/composite_register.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"

namespace {

using Reg = compreg::core::CompositeRegister<std::uint64_t>;

// Prints one row and returns its helping rate in percent.
double print_stats(const char* label, const Reg::ScanCaseStats& s) {
  const double total = static_cast<double>(s.adopted_snapshot +
                                           s.first_collect +
                                           s.second_collect);
  const double rate =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(s.adopted_snapshot) / total;
  std::printf("%-10s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "   %5.1f%%\n",
              label, s.adopted_snapshot, s.first_collect, s.second_collect,
              rate);
  return rate;
}

}  // namespace

int main() {
  std::printf("E10: statement-8 branch distribution (top recursion level, "
              "C=2, 1 reader)\n\n");
  std::printf("-- deterministic adversary: scanner rationed to 1 step per "
              "P writer steps --\n");
  std::printf("%-10s %14s %14s %14s   %s\n", "P", "adopted ss",
              "1st collect", "2nd collect", "helping rate");
  constexpr int kScans = 2000;
  int deviations = 0;
  double last_rate = 0;
  int saturated_from = 0;  // the first P whose rate is 100%
  for (int period : {1, 2, 4, 8, 16, 64}) {
    Reg reg(2, 1, 0);
    compreg::sched::RationPolicy policy(1, period);
    compreg::sched::SimScheduler sim(policy);
    std::atomic<bool> scanning{true};
    sim.spawn([&] {
      for (std::uint64_t i = 1; scanning.load(); ++i) reg.update(0, i);
    });
    sim.spawn([&] {
      std::vector<compreg::core::Item<std::uint64_t>> out;
      for (int n = 0; n < kScans; ++n) reg.scan_items(0, out);
      scanning.store(false);
    });
    sim.run();
    char label[16];
    std::snprintf(label, sizeof label, "%d", period);
    const Reg::ScanCaseStats stats = reg.scan_case_stats();
    const double rate = print_stats(label, stats);
    // Every scan lands in one branch; a scanner that runs every other
    // step never adopts; starving it harder never lowers the rate.
    if (stats.adopted_snapshot + stats.first_collect + stats.second_collect !=
            kScans ||
        (period == 1 && rate != 0) || rate < last_rate) {
      std::printf("DEVIATION at P=%d\n", period);
      ++deviations;
    }
    if (rate == 100 && saturated_from == 0) saturated_from = period;
    last_rate = rate;
  }
  if (last_rate != 100) {
    std::printf("DEVIATION: the most starved scanner adopts %.1f%%, not "
                "100%%\n",
                last_rate);
    ++deviations;
  }

  std::printf("\n-- native threads (C=2): one continuously-writing Writer 0 "
              "vs an idle one --\n");
  std::printf("%-10s %14s %14s %14s   %s\n", "writer", "adopted ss",
              "1st collect", "2nd collect", "helping rate");
  {
    Reg reg(2, 1, 0);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) reg.update(0, ++i);
    });
    std::vector<compreg::core::Item<std::uint64_t>> out;
    for (int n = 0; n < 200000; ++n) reg.scan_items(0, out);
    stop.store(true);
    writer.join();
    print_stats("busy", reg.scan_case_stats());
  }
  {
    Reg reg(2, 1, 0);
    std::vector<compreg::core::Item<std::uint64_t>> out;
    for (int n = 0; n < 200000; ++n) reg.scan_items(0, out);
    if (print_stats("idle", reg.scan_case_stats()) != 0) {
      std::printf("DEVIATION: a scan with no writer adopted a snapshot\n");
      ++deviations;
    }
  }
  std::printf("\n-- per recursion level (C=4, sim adversary P=4): where in "
              "the recursion does helping fire? --\n");
  {
    Reg reg(4, 1, 0);
    compreg::sched::RationPolicy policy(1, 4);
    compreg::sched::SimScheduler sim(policy);
    std::atomic<bool> scanning{true};
    sim.spawn([&] {
      for (std::uint64_t i = 1; scanning.load(); ++i) {
        reg.update(static_cast<int>(i % 4), i);
      }
    });
    sim.spawn([&] {
      std::vector<compreg::core::Item<std::uint64_t>> out;
      for (int n = 0; n < 300; ++n) reg.scan_items(0, out);
      scanning.store(false);
    });
    sim.run();
    const auto levels = reg.scan_case_stats_by_level();
    std::printf("%-10s %14s %14s %14s %14s\n", "level", "adopted ss",
                "1st collect", "2nd collect", "base reads");
    for (std::size_t l = 0; l < levels.size(); ++l) {
      std::printf("%-10zu %14" PRIu64 " %14" PRIu64 " %14" PRIu64
                  " %14" PRIu64 "\n",
                  l, levels[l].adopted_snapshot, levels[l].first_collect,
                  levels[l].second_collect, levels[l].base_reads);
    }
    std::printf("(level l is scanned 2^l times per top-level scan — the "
                "construction is straight-line, statement 8 picks AFTER "
                "both inner scans ran — plus once per 0-Write at the level "
                "above it: writers' embedded snapshots also recurse)\n");
  }

  std::printf("\nShape: helping never fires without a writer or when the "
              "scanner runs every other step (cases 3/4), never falls as "
              "the scanner is starved, and is 100%% from P=%d on — the "
              "regime Figure 4 illustrates, and the reason the "
              "construction never needs to retry.\n",
              saturated_from);
  return deviations == 0 ? 0 : 1;
}
