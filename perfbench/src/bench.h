// Shared pieces of the perfbench program: run options, the latency
// histogram every workload records into, and the result a workload
// hands back to main() for printing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;     // fresh per-run directory (relative to cwd)
  std::string server_bin;  // compreg_server binary (also the replica binary)
  std::string spans_out;   // traced runs write their spans here
};

// Log-linear latency histogram: values below 128 are exact, above that
// every power of two is split into 128 sub-buckets (under 1% relative
// width). quantile() interpolates by rank inside the bucket, so a
// reported percentile keeps all its digits instead of snapping to a
// bucket edge. Single-owner; merge() combines per-thread copies.
class LatencyHisto {
 public:
  LatencyHisto() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
    sum_ += static_cast<double>(v);
  }
  void merge(const LatencyHisto& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0 : sum_ / static_cast<double>(n_); }
  double quantile(double q) const;
  // Samples strictly above quantile q (how many lie beyond a percentile).
  std::uint64_t beyond(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = kSub * 58;

  static std::size_t index(std::uint64_t v);
  static double bucket_lo(std::size_t i);
  static double bucket_width(std::size_t i);

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run reports. `attempted`/`failed` count timed
// operations; `failed` includes every operation a correctness check
// flagged.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> findings;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void finding(const std::string& what) {
    findings.push_back(what);
    correct = false;
  }
};

// Prints one end-to-end latency pair with its sample counts and stores
// `<prefix>_p50_us` / `<prefix>_p99_us`: for a window cut into slices,
// the median over the slices of that slice's percentile.
void report_latency(RunResult& r, const std::string& prefix,
                    const std::vector<LatencyHisto>& slices);

// Median of a small sample (copied; the input stays unsorted).
double median(std::vector<double> v);

// Workload entry points. Each fills `r` and prints its report lines.
void run_snapshot(const Options& opt, int components, RunResult& r);
void run_service(const Options& opt, unsigned write_pct, RunResult& r);

class Tracer;

// Workload-independent layer probes, run by every traced run after its
// workload: a standalone HazardCell, the afek/seqlock baselines in the
// snapshot-mixed shape, telemetry recording, and FileDurable persists
// in `dir`. Each runs for about `seconds`.
// The service layers, from a short service-read-mostly phase in a
// directory of its own (see service_workload.cpp).
void probe_service(const Options& opt, Tracer& tracer, RunResult& r);
void probe_registers(double seconds, Tracer& tracer, RunResult& r);
void probe_baselines(double seconds, std::uint64_t seed, RunResult& r);
void probe_telemetry(double seconds, Tracer& tracer, RunResult& r);
void probe_durable(const std::string& dir, double seconds, Tracer& tracer,
                   RunResult& r);
inline void run_layer_probes(const Options& opt, const std::string& dir,
                             Tracer& tracer, RunResult& r) {
  probe_registers(0.5, tracer, r);
  probe_baselines(0.5, opt.seed, r);
  probe_telemetry(0.3, tracer, r);
  probe_durable(dir, 0.6, tracer, r);
}

}  // namespace perfbench
