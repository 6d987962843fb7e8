// E4 — Throughput / latency comparison and the Anderson-vs-Afek
// crossover (paper Section 5: "their solution is polynomial in both
// space and time"; Section 1: snapshots "without using mutual
// exclusion").
//
// Series:
//  * ScanLatency/<impl>/C      — single-thread scan cost vs component
//                                count: Anderson grows ~2^C, Afek ~C^2,
//                                locks stay flat (the crossover figure);
//  * UpdateLatency/<impl>/C    — single-thread update cost vs C;
//  * Mixed/<impl>/threads      — concurrent scans+updates, C = 4:
//                                thread t is the writer of component t
//                                while t < C, otherwise a scanner.
//
// `--json FILE` additionally writes every measured series row into the
// shared BENCH_*.json envelope (schema_version 1, one flat row per
// benchmark run — validated by tools/check_bench_schema.py). All other
// flags pass through to google-benchmark (e.g. --benchmark_filter).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/afek_snapshot.h"
#include "baselines/double_collect.h"
#include "baselines/mutex_snapshot.h"
#include "baselines/seqlock_snapshot.h"
#include "baselines/unbounded_helping.h"
#include "core/composite_register.h"
#include "util/bench_json.h"

namespace {

using compreg::core::Snapshot;

constexpr int kMaxThreads = 16;

template <typename Impl>
std::unique_ptr<Snapshot<std::uint64_t>> make(int c, int r) {
  return std::make_unique<Impl>(c, r, std::uint64_t{0});
}

using Anderson = compreg::core::CompositeRegister<std::uint64_t>;
using Afek = compreg::baselines::AfekSnapshot<std::uint64_t>;
using Unbounded = compreg::baselines::UnboundedHelpingSnapshot<std::uint64_t>;
using DoubleCollect = compreg::baselines::DoubleCollectSnapshot<std::uint64_t>;
using Mutex = compreg::baselines::MutexSnapshot<std::uint64_t>;
using Seqlock = compreg::baselines::SeqlockSnapshot<std::uint64_t>;

template <typename Impl>
void BM_ScanLatency(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  auto snap = make<Impl>(c, 1);
  for (int k = 0; k < c; ++k) snap->update(k, 1);
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    snap->scan(0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename Impl>
void BM_UpdateLatency(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  auto snap = make<Impl>(c, 1);
  std::uint64_t v = 0;
  for (auto _ : state) {
    snap->update(0, ++v);
  }
  state.SetItemsProcessed(state.iterations());
}

// Concurrent mixed load: C = 4 components. Threads 0..3 are the four
// writers; any further threads are scanners. Reader slots are
// preallocated for every thread (writers do not scan here).
template <typename Impl>
void BM_Mixed(benchmark::State& state) {
  constexpr int kC = 4;
  static std::unique_ptr<Snapshot<std::uint64_t>> snap;
  // Thread 0 sets up before the loop; the iteration-start barrier
  // orders this before every thread's first iteration (the pattern
  // from the google-benchmark user guide).
  if (state.thread_index() == 0) {
    snap = make<Impl>(kC, kMaxThreads);
  }

  const int tid = state.thread_index();
  std::vector<std::uint64_t> out;
  std::uint64_t v = 0;
  for (auto _ : state) {
    if (tid < kC) {
      snap->update(tid, ++v);
    } else {
      snap->scan(tid, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    snap.reset();
  }
}

}  // namespace

#define SCAN_SERIES(Impl)                                         \
  BENCHMARK_TEMPLATE(BM_ScanLatency, Impl)                        \
      ->Name("E4/ScanLatency/" #Impl)                             \
      ->DenseRange(1, 10, 1)

#define UPDATE_SERIES(Impl)                                       \
  BENCHMARK_TEMPLATE(BM_UpdateLatency, Impl)                      \
      ->Name("E4/UpdateLatency/" #Impl)                           \
      ->DenseRange(1, 10, 1)

#define MIXED_SERIES(Impl)                                        \
  BENCHMARK_TEMPLATE(BM_Mixed, Impl)                              \
      ->Name("E4/Mixed/" #Impl)                                   \
      ->ThreadRange(1, kMaxThreads)                               \
      ->UseRealTime()

SCAN_SERIES(Anderson);
SCAN_SERIES(Afek);
SCAN_SERIES(Unbounded);
SCAN_SERIES(DoubleCollect);
SCAN_SERIES(Mutex);
SCAN_SERIES(Seqlock);

UPDATE_SERIES(Anderson);
UPDATE_SERIES(Afek);
UPDATE_SERIES(Unbounded);
UPDATE_SERIES(DoubleCollect);
UPDATE_SERIES(Mutex);
UPDATE_SERIES(Seqlock);

MIXED_SERIES(Anderson);
MIXED_SERIES(Afek);
MIXED_SERIES(Unbounded);
MIXED_SERIES(DoubleCollect);
MIXED_SERIES(Mutex);
MIXED_SERIES(Seqlock);

namespace {

// Console output as usual, plus one flat JSON row per measured run for
// the schema-checked BENCH_throughput.json envelope.
class RowCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      rows.add("{\"experiment\":\"E4\",\"name\":\"%s\",\"threads\":%d,"
               "\"iterations\":%lld,\"ns_per_op\":%.3f,"
               "\"items_per_s\":%.1f}",
               run.benchmark_name().c_str(), static_cast<int>(run.threads),
               static_cast<long long>(run.iterations),
               run.GetAdjustedRealTime(),
               it != run.counters.end() ? static_cast<double>(it->second)
                                        : 0.0);
    }
  }

  compreg::BenchRows rows;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --json FILE; everything else is google-benchmark's.
  const char* json_path = nullptr;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 64;
  }
  RowCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (json_path != nullptr && !reporter.rows.write(json_path, "throughput")) {
    return 1;
  }
  return 0;
}
