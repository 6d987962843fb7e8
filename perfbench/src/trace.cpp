#include "trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

// ---------------------------------------------------------------------------
// LatencyHisto and small helpers shared by every workload

std::size_t LatencyHisto::index(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - (kSubBits + 1);
  const std::uint64_t mant = v >> e;  // in [kSub, 2*kSub)
  return static_cast<std::size_t>(kSub + static_cast<std::uint64_t>(e) * kSub +
                                  (mant - kSub));
}

double LatencyHisto::bucket_lo(std::size_t i) {
  if (i < kSub) return static_cast<double>(i);
  const std::size_t e = (i - kSub) / kSub;
  const std::size_t m = (i - kSub) % kSub + kSub;
  return std::ldexp(static_cast<double>(m), static_cast<int>(e));
}

double LatencyHisto::bucket_width(std::size_t i) {
  if (i < kSub) return 1;
  return std::ldexp(1.0, static_cast<int>((i - kSub) / kSub));
}

double LatencyHisto::quantile(double q) const {
  if (n_ == 0) return 0;
  const double target = q * static_cast<double>(n_ - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = counts_[i];
    if (c == 0) continue;
    if (target < static_cast<double>(before + c)) {
      const double frac =
          (target - static_cast<double>(before) + 0.5) / static_cast<double>(c);
      return bucket_lo(i) + bucket_width(i) * std::min(frac, 1.0);
    }
    before += c;
  }
  return bucket_lo(kBuckets - 1);
}

std::uint64_t LatencyHisto::beyond(double q) const {
  if (n_ == 0) return 0;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  return n_ - 1 - rank;
}

void report_latency(RunResult& r, const std::string& prefix,
                    const std::vector<LatencyHisto>& slices) {
  std::vector<double> p50;
  std::vector<double> p99;
  LatencyHisto all;
  std::uint64_t min_n = ~std::uint64_t{0};
  std::uint64_t min_beyond = ~std::uint64_t{0};
  for (const LatencyHisto& h : slices) {
    p50.push_back(h.quantile(0.50) / 1000.0);
    p99.push_back(h.quantile(0.99) / 1000.0);
    all.merge(h);
    min_n = std::min(min_n, h.count());
    min_beyond = std::min(min_beyond, h.beyond(0.99));
  }
  std::printf("  %-6s p50 %10.3f us   p99 %10.3f us   n=%llu (per slice at "
              "least %llu, %llu beyond p99)   pooled mean %.3f us\n",
              prefix.c_str(), median(p50), median(p99),
              static_cast<unsigned long long>(all.count()),
              static_cast<unsigned long long>(min_n),
              static_cast<unsigned long long>(min_beyond), all.mean() / 1000.0);
  r.set(prefix + "_p50_us", median(p50), "us");
  r.set(prefix + "_p99_us", median(p99), "us");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Spans

SpanBuffer::SpanBuffer(int thread, Clock::time_point origin,
                       std::size_t capacity)
    : thread_(thread), origin_(origin), ring_(capacity) {
  stack_.reserve(16);
}

std::uint64_t SpanBuffer::begin(const char* name) {
  const std::uint64_t id = next_id_++;
  Span& s = ring_[(id - 1) % ring_.size()];
  s.id = id;
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.op = op_;
  s.name = name;
  s.start_ns = ns_between(origin_, Clock::now());
  s.end_ns = s.start_ns;
  stack_.push_back(id);
  return id;
}

void SpanBuffer::end(std::uint64_t id) {
  const std::int64_t now = ns_between(origin_, Clock::now());
  Span& s = ring_[(id - 1) % ring_.size()];
  if (s.id == id) s.end_ns = now;  // else overwritten by newer spans
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<Span> SpanBuffer::spans() const {
  std::vector<Span> out;
  const std::uint64_t n = next_id_ - 1;
  const std::uint64_t keep = std::min<std::uint64_t>(n, ring_.size());
  out.reserve(keep);
  for (std::uint64_t id = n - keep + 1; id <= n; ++id) {
    out.push_back(ring_[(id - 1) % ring_.size()]);
  }
  return out;
}

std::map<std::string, SpanTotals> summarize(
    const std::vector<const SpanBuffer*>& bufs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanBuffer* buf : bufs) {
    const std::vector<Span> spans = buf->spans();
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (const Span& s : spans) {
      const std::int64_t dur = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      const std::int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_us += static_cast<double>(dur) / 1000.0;
      t.self_us += static_cast<double>(self) / 1000.0;
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& bufs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\top\tid\tparent\tname\tstart_ns\tend_ns\n";
  for (const SpanBuffer* buf : bufs) {
    for (const Span& s : buf->spans()) {
      out << buf->thread() << '\t' << s.op << '\t' << s.id << '\t'
          << s.parent << '\t' << s.name << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

void print_span_summary(const std::map<std::string, SpanTotals>& totals) {
  std::printf("  %-30s %10s %14s %14s %12s\n", "span", "count", "total_us",
              "self_us", "self_us/span");
  for (const auto& [name, t] : totals) {
    std::printf("  %-30s %10llu %14.1f %14.1f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_us,
                t.self_us,
                t.count == 0 ? 0.0 : t.self_us / static_cast<double>(t.count));
  }
}

}  // namespace perfbench
