// Layer probes that do not depend on the workload: registers::HazardCell
// with a Y[0]-shaped payload, telemetry::Recorder::record, and
// net::real::FileDurable::persist. Each times the benchmark's own calls
// into the layer's public functions. Calls that take nanoseconds are
// timed in batches, so the clock read does not swamp the call.
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/item.h"
#include "net/real/durable_file.h"
#include "registers/hazard_cell.h"
#include "telemetry/telemetry.h"
#include "trace.h"

namespace perfbench {
namespace {

using compreg::core::Item;

// Same shape as CompositeRegister's Y[0] record at C=4, R=3: the item,
// two mod-3 copies per reader, the writer's embedded snapshot and the
// write counter. Copying it costs what copying Y[0] costs.
constexpr int kComponents = 4;
constexpr int kReaders = 3;
constexpr std::uint64_t kY0Bits = 64 + 4 * kReaders + kComponents * 64 + 2;
constexpr std::uint64_t kValMul = 0x9e3779b97f4a7c15ull;
// Probe threads keep only their newest batch spans.
constexpr std::size_t kProbeSpans = std::size_t{1} << 12;

struct Y0Shape {
  Item<std::uint64_t> item;
  std::vector<std::array<std::uint8_t, 2>> seq;
  std::vector<Item<std::uint64_t>> ss;
  std::uint8_t wc = 0;
};

Y0Shape y0_shape(std::uint64_t id) {
  Y0Shape s;
  s.item = Item<std::uint64_t>{id * kValMul, id};
  s.seq.assign(kReaders, {static_cast<std::uint8_t>(id % 3),
                          static_cast<std::uint8_t>((id + 1) % 3)});
  s.ss.assign(kComponents, s.item);
  s.wc = static_cast<std::uint8_t>(id % 3);
  return s;
}

// Starts `n` workers, lets them run for `seconds`, stops and joins them.
// Each worker gets its index and the stop flag.
template <typename Body>
void run_for(int n, double seconds, Body body) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] { body(i, stop); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
}

}  // namespace

void probe_registers(double seconds, Tracer& tracer, RunResult& r) {
  constexpr int kBatch = 64;
  compreg::registers::HazardCell<Y0Shape> cell(kReaders, y0_shape(0), "Y0",
                                               kY0Bits);
  std::vector<LatencyHisto> batch_ns(kReaders + 1);
  std::vector<std::uint64_t> bad(kReaders + 1, 0);
  std::vector<SpanBuffer*> bufs;
  for (int i = 0; i <= kReaders; ++i) bufs.push_back(tracer.buffer(kProbeSpans));

  run_for(kReaders + 1, seconds, [&](int t, const std::atomic<bool>& stop) {
    SpanBuffer* buf = bufs[static_cast<std::size_t>(t)];
    LatencyHisto& h = batch_ns[static_cast<std::size_t>(t)];
    std::uint64_t id = 0;
    Y0Shape payload = y0_shape(0);
    while (!stop.load(std::memory_order_relaxed)) {
      if (t == kReaders) {  // the single writer
        ScopedSpan span(buf, "registers.hazard.write_batch");
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kBatch; ++i) {
          ++id;
          payload.item = Item<std::uint64_t>{id * kValMul, id};
          payload.ss[0] = payload.item;
          cell.write(payload);
        }
        h.record(static_cast<std::uint64_t>(ns_between(t0, Clock::now())));
      } else {
        ScopedSpan span(buf, "registers.hazard.read_batch");
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kBatch; ++i) {
          const Y0Shape v = cell.read(t);
          if (v.item.val != v.item.id * kValMul || v.ss[0] != v.item) {
            ++bad[static_cast<std::size_t>(t)];
          }
        }
        h.record(static_cast<std::uint64_t>(ns_between(t0, Clock::now())));
      }
    }
  });

  LatencyHisto reads;
  for (int t = 0; t < kReaders; ++t) reads.merge(batch_ns[static_cast<std::size_t>(t)]);
  const LatencyHisto& writes = batch_ns[kReaders];
  std::uint64_t mismatches = 0;
  for (std::uint64_t b : bad) mismatches += b;
  if (mismatches != 0) {
    r.finding("registers: " + std::to_string(mismatches) +
              " HazardCell reads returned a torn or unwritten payload");
  }
  const double read_ns = reads.quantile(0.5) / kBatch;
  const double write_ns = writes.quantile(0.5) / kBatch;
  std::printf("registers: HazardCell<Y0 shape, %llu bits>, 1 writer + %d "
              "readers: read %.1f ns, write %.1f ns (median of %llu / %llu "
              "batches of %d)\n",
              static_cast<unsigned long long>(kY0Bits), kReaders, read_ns,
              write_ns, static_cast<unsigned long long>(reads.count()),
              static_cast<unsigned long long>(writes.count()), kBatch);
  r.set("registers.hazard_read_ns", read_ns, "ns");
  r.set("registers.hazard_write_ns", write_ns, "ns");
}

void probe_telemetry(double seconds, Tracer& tracer, RunResult& r) {
  constexpr int kThreads = 4;
  constexpr int kBatch = 1024;
  compreg::telemetry::Registry registry;
  std::vector<LatencyHisto> batch_ns(kThreads);
  std::vector<std::uint64_t> recorded(kThreads, 0);
  std::vector<SpanBuffer*> bufs;
  for (int i = 0; i < kThreads; ++i) bufs.push_back(tracer.buffer(kProbeSpans));

  run_for(kThreads, seconds, [&](int t, const std::atomic<bool>& stop) {
    compreg::telemetry::Recorder* rec = registry.attach();
    if (rec == nullptr) return;
    SpanBuffer* buf = bufs[static_cast<std::size_t>(t)];
    std::uint64_t v = static_cast<std::uint64_t>(t);
    while (!stop.load(std::memory_order_relaxed)) {
      ScopedSpan span(buf, "telemetry.record_batch");
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        rec->record(compreg::telemetry::Histo::kReadLatencyUs, v & 0xffff);
        v += 7;
      }
      batch_ns[static_cast<std::size_t>(t)].record(
          static_cast<std::uint64_t>(ns_between(t0, Clock::now())));
      recorded[static_cast<std::size_t>(t)] += kBatch;
    }
  });

  LatencyHisto all;
  std::uint64_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    all.merge(batch_ns[static_cast<std::size_t>(t)]);
    total += recorded[static_cast<std::size_t>(t)];
  }
  const std::uint64_t merged =
      registry.snapshot().histo(compreg::telemetry::Histo::kReadLatencyUs)
          .count();
  if (merged != total) {
    r.finding("telemetry: merged histogram holds " + std::to_string(merged) +
              " samples, " + std::to_string(total) + " were recorded");
  }
  const double ns = all.quantile(0.5) / kBatch;
  std::printf("telemetry: Recorder::record from %d threads: %.2f ns (median "
              "of %llu batches of %d)\n",
              kThreads, ns, static_cast<unsigned long long>(all.count()),
              kBatch);
  r.set("telemetry.record_ns", ns, "ns");
}

void probe_durable(const std::string& dir, double seconds, Tracer& tracer,
                   RunResult& r) {
  const std::string path = dir + "/perfbench-probe.dur";
  std::error_code ec;
  std::filesystem::remove(path, ec);  // persist() skips ts <= the file's
  SpanBuffer* buf = tracer.buffer();
  LatencyHisto ns;
  std::uint64_t ts = 1;
  {
    compreg::net::real::FileDurable durable(path);
    durable.persist(ts, ts * kValMul);  // creates the file; not timed
    const Clock::time_point until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (Clock::now() < until) {
      ++ts;
      ScopedSpan span(buf, "net.real.durable.persist");
      const Clock::time_point t0 = Clock::now();
      durable.persist(ts, ts * kValMul);
      ns.record(static_cast<std::uint64_t>(ns_between(t0, Clock::now())));
    }
  }
  const compreg::net::real::FileDurable reread(path);
  if (reread.ts() != ts || reread.value() != ts * kValMul) {
    r.finding("durable: reload after " + std::to_string(ts) +
              " persists read back ts " + std::to_string(reread.ts()));
  }
  const double p50 = ns.quantile(0.50) / 1000.0;
  const double p99 = ns.quantile(0.99) / 1000.0;
  std::printf("durable: FileDurable::persist (tmp write, fsync, rename, dir "
              "fsync): p50 %.1f us, p99 %.1f us, n=%llu\n",
              p50, p99, static_cast<unsigned long long>(ns.count()));
  r.set("net.real.durable.persist_us_p50", p50, "us");
  r.set("net.real.durable.persist_us_p99", p99, "us");
}

}  // namespace perfbench
