// Shared machinery of the verification drivers (verify_schedules,
// compreg_loadgen): the implementation factory, the replayable-artifact
// writer, the mutex-shared LiveState the watchdog reads, and the
// watchdog itself. One copy, so a hang artifact looks the same whether
// the run that wedged was a sampled execution, a DPOR-explored
// schedule, or a real-socket fleet. Flag parsing and exit codes are in
// cli.h.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "baselines/afek_snapshot.h"
#include "baselines/double_collect.h"
#include "baselines/mutex_snapshot.h"
#include "baselines/seqlock_snapshot.h"
#include "baselines/unbounded_helping.h"
#include "core/composite_register.h"
#include "lin/dump.h"
#include "lin/history.h"
#include "net/replicated_register.h"
#include "theory/chain.h"
#include "cli.h"

namespace compreg::tools {

inline std::unique_ptr<core::Snapshot<std::uint64_t>> make_impl(
    const std::string& name, int c, int r) {
  if (name == "anderson") {
    return std::make_unique<core::CompositeRegister<std::uint64_t>>(c, r, 0);
  }
  if (name == "fullstack") {
    return std::make_unique<core::CompositeRegister<
        std::uint64_t, theory::TheoryCell, theory::TheoryCell>>(c, r, 0);
  }
  if (name == "afek") {
    return std::make_unique<baselines::AfekSnapshot<std::uint64_t>>(c, r, 0);
  }
  if (name == "unbounded") {
    return std::make_unique<baselines::UnboundedHelpingSnapshot<std::uint64_t>>(
        c, r, 0);
  }
  if (name == "doublecollect") {
    return std::make_unique<baselines::DoubleCollectSnapshot<std::uint64_t>>(
        c, r, 0);
  }
  if (name == "seqlock") {
    return std::make_unique<baselines::SeqlockSnapshot<std::uint64_t>>(c, r,
                                                                       0);
  }
  if (name == "mutex") {
    return std::make_unique<baselines::MutexSnapshot<std::uint64_t>>(c, r, 0);
  }
  if (name == "net") {
    // Caller must have a net::ScopedNetFabric installed; every base cell
    // of the construction becomes one quorum-replicated register on it.
    return std::make_unique<core::CompositeRegister<
        std::uint64_t, net::NetCell, net::NetCell>>(c, r, 0);
  }
  return nullptr;
}

// What the driver is doing *right now*, shared with the watchdog thread
// so a hang artifact can name the in-flight seed, the exact (derived)
// plans, and — under DPOR — the schedule prefix being replayed, not
// just the fixed flags.
struct LiveState {
  std::mutex mu;
  std::uint64_t seed = 0;
  std::string plan;      // process fault plan in force
  std::string net_plan;  // network fault plan in force
  std::string schedule;  // DPOR: schedule prefix of the in-flight run

  void set(std::uint64_t s, const std::string& p, const std::string& np,
           const std::string& sch = std::string()) {
    std::lock_guard<std::mutex> lock(mu);
    seed = s;
    plan = p;
    net_plan = np;
    schedule = sch;
  }
  void get(std::uint64_t& s, std::string& p, std::string& np,
           std::string& sch) {
    std::lock_guard<std::mutex> lock(mu);
    s = seed;
    p = plan;
    np = net_plan;
    sch = schedule;
  }
};

struct Artifact {
  std::string tool = "verify_schedules";
  std::string path = "verify_schedules_failure.txt";
  std::string config_line;
};

// Builds the single copy-pasteable command that replays one execution:
// the concrete plans (and, for DPOR, the exact schedule) ride along
// explicitly, so the replay does not depend on derivation flags.
using ReplayFn = std::function<std::string(
    std::uint64_t seed, const std::string& plan, const std::string& net_plan,
    const std::string& schedule)>;

// Writes a replayable failure artifact: the config, the failing seed,
// the plans and schedule in force, the replay command, and (when
// available) the offending history plus a parseable conformance dump.
inline void write_artifact(const Artifact& artifact, const char* kind,
                           std::uint64_t seed, const std::string& plan,
                           const std::string& net_plan,
                           const std::string& schedule,
                           const std::string& replay,
                           const std::string& detail,
                           const lin::History* history,
                           const std::string& conformance_dump =
                               std::string()) {
  std::ofstream out(artifact.path);
  if (!out) {
    std::fprintf(stderr, "cannot write artifact to %s\n",
                 artifact.path.c_str());
    return;
  }
  out << "# " << artifact.tool << " " << kind << "\n";
  out << "# " << artifact.config_line << "\n";
  out << "# seed " << seed << "\n";
  if (!plan.empty()) out << "# plan " << plan << "\n";
  if (!net_plan.empty()) out << "# net-plan " << net_plan << "\n";
  if (!schedule.empty()) out << "# schedule " << schedule << "\n";
  if (!replay.empty()) out << "# replay: " << replay << "\n";
  if (!detail.empty()) out << "# " << detail << "\n";
  if (history != nullptr) lin::dump_history(*history, out);
  if (!conformance_dump.empty()) {
    out << "# conformance report follows\n" << conformance_dump;
  }
  std::fprintf(stderr, "artifact written to %s\n", artifact.path.c_str());
}

// Hang detector: if the driver makes no progress for `timeout_sec`,
// dump an artifact naming the in-flight seed, plans and schedule, a
// copy-pasteable replay command, and the conformance analyzer's report
// of everything observed up to the hang. Then _Exit(2). _Exit skips
// destructors on purpose — a wedged simulator holds threads that can
// never be joined.
class Watchdog {
 public:
  Watchdog(unsigned timeout_sec, const Artifact& artifact,
           const std::atomic<std::uint64_t>& progress, LiveState& live,
           ReplayFn replay, std::function<std::string()> conformance_dump)
      : timeout_sec_(timeout_sec) {
    if (timeout_sec_ == 0) return;
    std::thread([this, &artifact, &progress, &live,
                 replay = std::move(replay),
                 conformance_dump = std::move(conformance_dump)] {
      std::uint64_t last = progress.load();
      auto last_change = std::chrono::steady_clock::now();
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const std::uint64_t now_progress = progress.load();
        if (now_progress != last) {
          last = now_progress;
          last_change = std::chrono::steady_clock::now();
          continue;
        }
        const auto stalled = std::chrono::steady_clock::now() - last_change;
        if (stalled >= std::chrono::seconds(timeout_sec_)) {
          std::uint64_t seed = 0;
          std::string plan;
          std::string net_plan;
          std::string schedule;
          live.get(seed, plan, net_plan, schedule);
          std::fprintf(stderr,
                       "WATCHDOG: no progress for %u s, run is hung "
                       "(seed %llu); exiting 2\n",
                       timeout_sec_,
                       static_cast<unsigned long long>(seed));
          // The hung execution's workload threads are parked in the
          // scheduler, so reading the analysis session here is quiet.
          const std::string dump =
              conformance_dump ? conformance_dump() : std::string();
          write_artifact(artifact, "watchdog timeout (hung run)", seed, plan,
                         net_plan, schedule,
                         replay(seed, plan, net_plan, schedule),
                         "the execution at this seed never completed; any "
                         "conformance report below reflects events up to "
                         "the hang",
                         nullptr, dump);
          std::fflush(stdout);
          std::fflush(stderr);
          std::_Exit(kExitWatchdog);
        }
      }
    }).detach();
  }

 private:
  unsigned timeout_sec_;
};

}  // namespace compreg::tools
