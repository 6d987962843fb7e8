// snapshot-mixed and snapshot-deep: the paper's construction in process.
//
// CompositeRegister<uint64_t> with C components (4 in snapshot-mixed, 6
// in snapshot-deep) and R=3 reader slots.
// One writer thread owns every component and updates them round-robin
// (each round visits all C in a seed-shuffled order); three scanner
// threads each own a reader slot. Closed loop: every thread starts its
// next operation when the previous one returns.
//
// The timed window is cut into one-second slices; each end-to-end figure
// is the median over the slices of that slice's figure, so a short stall
// of the host moves one slice, not the result.
//
// Outputs are checked three ways. Every update must return the id the
// writer expects next for its component. Every scan must return, per
// component, exactly the value written under the id it reports, and ids
// no older than the same scanner's previous scan. And a checked prefix
// of the register's history (the first kPrefixRounds writer rounds
// against kPrefixScans scans per reader, recorded before timing starts)
// goes through the Shrinking Lemma checker.
#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/afek_snapshot.h"
#include "baselines/seqlock_snapshot.h"
#include "core/composite_register.h"
#include "lin/history.h"
#include "lin/shrinking_checker.h"
#include "lin/workload.h"
#include "trace.h"
#include "util/op_counter.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using compreg::OpCounters;
using compreg::core::Item;
using compreg::core::Snapshot;
using compreg::lin::write_value;
using Composite = compreg::core::CompositeRegister<std::uint64_t>;

constexpr int kComponents = 4;  // snapshot-mixed, the probes' shape
constexpr int kReaders = 3;
constexpr int kSetupRepeats = 401;  // per register instance
constexpr int kInstances = 10;
constexpr int kPrefixRounds = 2000;  // writer rounds: 2000 x C updates
constexpr int kPrefixScans = 2000;   // per reader

void add(OpCounters& sum, const OpCounters& more) {
  sum.reg_reads += more.reg_reads;
  sum.reg_writes += more.reg_writes;
}

// One runner phase. Slice i holds the operations that completed in the
// i-th slice of the window (the last slice also takes the operations
// that completed after the deadline).
struct Phase {
  std::vector<LatencyHisto> scans;
  std::vector<LatencyHisto> updates;
  double slice_s = 0;
  double window_s = 0;
  std::uint64_t flagged = 0;  // operations a per-op check rejected
  OpCounters scan_ops;        // base-register operations, all scans
  OpCounters update_ops;
  std::vector<std::string> findings;

  explicit Phase(std::size_t slices = 1) : scans(slices), updates(slices) {}

  static LatencyHisto pooled(const std::vector<LatencyHisto>& slices) {
    LatencyHisto all;
    for (const LatencyHisto& h : slices) all.merge(h);
    return all;
  }
  std::uint64_t ops() const {
    return pooled(scans).count() + pooled(updates).count();
  }
  double mean_latency_us() const {
    const LatencyHisto s = pooled(scans);
    const LatencyHisto u = pooled(updates);
    const std::uint64_t n = s.count() + u.count();
    if (n == 0) return 0;
    return (s.mean() * static_cast<double>(s.count()) +
            u.mean() * static_cast<double>(u.count())) /
           static_cast<double>(n) / 1000.0;
  }
};

// Drives one snapshot object in the snapshot-mixed shape. The writer's
// per-component id counters persist across phases, so several phases
// can run back to back on one object.
class MixedRunner {
 public:
  MixedRunner(Snapshot<std::uint64_t>& snap, std::uint64_t seed)
      : snap_(snap),
        c_(snap.components()),
        rng_(seed),
        next_id_(static_cast<std::size_t>(c_), 0) {}

  // Runs until `seconds` pass, or, when `history` is set, until the
  // writer made `rounds` rounds and every scanner `scans` scans while
  // recording every operation into `history`. `bufs` holds one span
  // buffer per thread (writer first), or nullptrs. A timed run is cut
  // into slices of about one second.
  Phase run(double seconds, const std::vector<SpanBuffer*>& bufs,
            compreg::lin::HistoryRecorder* history = nullptr, int rounds = 0,
            int scans = 0) {
    const std::size_t slices =
        history ? 1 : static_cast<std::size_t>(std::max(1.0, std::round(seconds)));
    Phase out(slices);
    out.slice_s = seconds / static_cast<double>(slices);
    std::vector<Phase> per(kReaders + 1, Phase(slices));
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    Clock::time_point start;
    std::vector<Clock::time_point> ended(kReaders + 1);
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));

    auto wait_go = [&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    };
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      wait_go();
      writer(per[0], Window{start, window, slices}, bufs[0], history, rounds);
      ended[0] = Clock::now();
    });
    for (int j = 0; j < kReaders; ++j) {
      threads.emplace_back([&, j] {
        wait_go();
        scanner(j, per[static_cast<std::size_t>(j) + 1],
                Window{start, window, slices},
                bufs[static_cast<std::size_t>(j) + 1], history, scans);
        ended[static_cast<std::size_t>(j) + 1] = Clock::now();
      });
    }
    while (ready.load() < kReaders + 1) std::this_thread::yield();
    start = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();

    for (const Phase& p : per) {
      for (std::size_t i = 0; i < slices; ++i) {
        out.scans[i].merge(p.scans[i]);
        out.updates[i].merge(p.updates[i]);
      }
      out.flagged += p.flagged;
      add(out.scan_ops, p.scan_ops);
      add(out.update_ops, p.update_ops);
      out.findings.insert(out.findings.end(), p.findings.begin(),
                          p.findings.end());
    }
    out.window_s =
        seconds_between(start, *std::max_element(ended.begin(), ended.end()));
    return out;
  }

 private:
  // The timed window a phase's threads share.
  struct Window {
    const Clock::time_point& start;  // set before the threads are released
    Clock::duration length;
    std::size_t slices;

    Clock::time_point deadline() const { return start + length; }
    std::size_t slice(Clock::time_point t) const {
      const auto i = static_cast<std::size_t>(
          static_cast<double>((t - start).count()) /
          static_cast<double>(length.count()) * static_cast<double>(slices));
      return std::min(i, slices - 1);
    }
  };

  void writer(Phase& p, const Window& w, SpanBuffer* buf,
              compreg::lin::HistoryRecorder* history, int rounds) {
    const Clock::time_point deadline = w.deadline();
    std::vector<int> order(static_cast<std::size_t>(c_));
    for (int k = 0; k < c_; ++k) order[static_cast<std::size_t>(k)] = k;
    const compreg::OpWindow ops;
    std::uint64_t seq = 0;
    for (int round = 0; history == nullptr || round < rounds; ++round) {
      for (int i = c_ - 1; i > 0; --i) {
        std::swap(order[static_cast<std::size_t>(i)],
                  order[rng_.below(static_cast<std::uint64_t>(i) + 1)]);
      }
      for (const int k : order) {
        const std::uint64_t id = ++next_id_[static_cast<std::size_t>(k)];
        const std::uint64_t value = write_value(k, id);
        if (buf != nullptr) buf->set_op((std::uint64_t{1} << 48) | ++seq);
        const std::uint64_t start = history ? history->clock().tick() : 0;
        const Clock::time_point t0 = Clock::now();
        std::uint64_t got = 0;
        {
          ScopedSpan span(buf, "core.update");
          got = snap_.update(k, value);
        }
        const Clock::time_point t1 = Clock::now();
        if (history != nullptr) {
          history->record_write(0, compreg::lin::WriteRec{
                                       k, got, value, start,
                                       history->clock().tick(), 0, 0});
        }
        p.updates[history ? 0 : w.slice(t1)].record(
            static_cast<std::uint64_t>(ns_between(t0, t1)));
        if (got != id) {
          ++p.flagged;
          if (p.findings.empty()) {
            p.findings.push_back("update of component " + std::to_string(k) +
                                 " returned id " + std::to_string(got) +
                                 ", expected " + std::to_string(id));
          }
        }
        if (history == nullptr && t1 >= deadline) {
          p.update_ops = ops.delta();
          return;
        }

      }
    }
    p.update_ops = ops.delta();
  }

  void scanner(int j, Phase& p, const Window& w, SpanBuffer* buf,
               compreg::lin::HistoryRecorder* history, int scans) {
    const Clock::time_point deadline = w.deadline();
    std::vector<Item<std::uint64_t>> items;
    std::vector<std::uint64_t> last(static_cast<std::size_t>(c_), 0);
    const compreg::OpWindow ops;
    const std::uint64_t tag = static_cast<std::uint64_t>(j + 2) << 48;
    for (std::uint64_t seq = 1;
         history == nullptr || seq <= static_cast<std::uint64_t>(scans);
         ++seq) {
      if (buf != nullptr) buf->set_op(tag | seq);
      const std::uint64_t start = history ? history->clock().tick() : 0;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(buf, "core.scan");
        snap_.scan_items(j, items);
      }
      const Clock::time_point t1 = Clock::now();
      p.scans[history ? 0 : w.slice(t1)].record(
          static_cast<std::uint64_t>(ns_between(t0, t1)));
      bool ok = items.size() == static_cast<std::size_t>(c_);
      for (int k = 0; ok && k < c_; ++k) {
        const Item<std::uint64_t>& it = items[static_cast<std::size_t>(k)];
        const std::uint64_t want = it.id == 0 ? 0 : write_value(k, it.id);
        ok = it.val == want && it.id >= last[static_cast<std::size_t>(k)];
        last[static_cast<std::size_t>(k)] = it.id;
      }
      if (!ok) {
        ++p.flagged;
        if (p.findings.empty()) {
          p.findings.push_back("scan by reader " + std::to_string(j) +
                               " returned a value not written under its id, "
                               "or an id older than its previous scan");
        }
      }
      if (history != nullptr) {
        compreg::lin::ReadRec rec;
        rec.start = start;
        rec.end = history->clock().tick();
        rec.proc = 1 + j;
        for (const Item<std::uint64_t>& it : items) {
          rec.ids.push_back(it.id);
          rec.values.push_back(it.val);
        }
        history->record_read(1 + j, std::move(rec));
      } else if (t1 >= deadline) {
        break;
      }
    }
    p.scan_ops = ops.delta();
  }

  Snapshot<std::uint64_t>& snap_;
  int c_;
  compreg::Rng rng_;  // writer thread only
  std::vector<std::uint64_t> next_id_;
};

std::vector<SpanBuffer*> thread_buffers(Tracer& tracer) {
  std::vector<SpanBuffer*> bufs;
  for (int t = 0; t <= kReaders; ++t) {
    bufs.push_back(tracer.buffer(std::size_t{1} << 15));
  }
  return bufs;
}

void absorb(RunResult& r, const Phase& p, const char* what) {
  r.attempted += p.ops();
  r.failed += p.flagged;
  for (const std::string& f : p.findings) r.finding(std::string(what) + ": " + f);
}

// Checks the recorded prefix with the Shrinking Lemma checker.
void check_prefix(MixedRunner& runner, int components, RunResult& r) {
  compreg::lin::HistoryRecorder history(
      components, std::vector<std::uint64_t>(components, 0), 1 + kReaders);
  const std::vector<SpanBuffer*> none(kReaders + 1, nullptr);
  const Phase p = runner.run(0, none, &history, kPrefixRounds, kPrefixScans);
  absorb(r, p, "prefix");
  const compreg::lin::History h = history.merge();
  const compreg::lin::CheckResult lin = compreg::lin::check_shrinking_lemma(h);
  std::printf("check: Shrinking Lemma over the first %d updates and %d scans "
              "per reader: %s\n",
              kPrefixRounds * components, kPrefixScans,
              lin.ok ? "OK" : lin.violation.c_str());
  if (!lin.ok) {
    ++r.failed;
    r.finding("shrinking lemma: " + lin.violation);
  }
}

}  // namespace

void run_snapshot(const Options& opt, int components, RunResult& r) {
  std::printf("workload %s: CompositeRegister<uint64_t> C=%d R=%d, 1 writer "
              "thread (all components, round-robin), %d scanner threads, "
              "closed loop, seed %llu\n",
              opt.workload.c_str(), components, kReaders, kReaders,
              static_cast<unsigned long long>(opt.seed));

  // Set-up is construction. An untraced run measures kInstances fresh
  // registers one after another, each over an equal share of the window,
  // so one unlucky heap layout or thread placement moves a few slices,
  // not the result.
  std::vector<double> setup;
  std::unique_ptr<Composite> reg;
  compreg::Rng pad_rng(opt.seed);
  auto construct = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      reg.reset();
      // A seeded pad moves each construction to other heap addresses, so
      // the median covers many layouts, not the one this process got.
      const std::vector<char> pad(pad_rng.below(8192) + 1);
      const Clock::time_point t0 = Clock::now();
      reg = std::make_unique<Composite>(components, kReaders, 0);
      setup.push_back(seconds_between(t0, Clock::now()));
    }
  };

  if (!opt.trace) {
    const std::vector<SpanBuffer*> none(kReaders + 1, nullptr);
    std::vector<double> rates;
    std::vector<LatencyHisto> scans;
    std::vector<LatencyHisto> updates;
    std::uint64_t ops = 0;
    double window_s = 0;
    for (int k = 0; k < kInstances; ++k) {
      construct();
      MixedRunner runner(*reg, compreg::Rng(opt.seed + k)());
      check_prefix(runner, components, r);
      const Phase p = runner.run(opt.seconds / kInstances, none);
      absorb(r, p, "timed");
      for (std::size_t i = 0; i < p.scans.size(); ++i) {
        rates.push_back(static_cast<double>(p.scans[i].count() +
                                            p.updates[i].count()) /
                        p.slice_s);
        scans.push_back(p.scans[i]);
        updates.push_back(p.updates[i]);
      }
      ops += p.ops();
      window_s += p.window_s;
    }
    std::printf("end-to-end (untraced, %d registers x %.2f s, medians over "
                "%zu slices):\n",
                kInstances, window_s / kInstances, rates.size());
    std::printf("  setup_s %.9f s (median of %zu constructions)\n",
                median(setup), setup.size());
    std::printf("  ops_per_s %.1f 1/s (%llu ops in the windows)\n",
                median(rates), static_cast<unsigned long long>(ops));
    r.set("setup_s", median(setup), "s");
    r.set("ops_per_s", median(rates), "1/s");
    report_latency(r, "read", scans);
    report_latency(r, "write", updates);
    return;
  }

  construct();
  MixedRunner runner(*reg, opt.seed);
  check_prefix(runner, components, r);
  Tracer tracer;

  // Traced run: untraced and traced segments alternate on the same
  // register (U T U T), so drift over the run cancels; the difference in
  // mean latency is the tracing overhead. Layer counts come from the
  // traced segments.
  const std::vector<SpanBuffer*> none(kReaders + 1, nullptr);
  const std::vector<SpanBuffer*> bufs = thread_buffers(tracer);
  double sum_us[2] = {0, 0};
  double n_ops[2] = {0, 0};
  double scans = 0;
  double updates = 0;
  OpCounters scan_ops;
  OpCounters update_ops;
  double adopted = 0;
  double cases = 0;
  for (int seg = 0; seg < 4; ++seg) {
    const int traced = seg % 2;
    const auto before = reg->scan_case_stats();
    const Phase p = runner.run(opt.seconds / 4, traced ? bufs : none);
    const auto after = reg->scan_case_stats();
    absorb(r, p, traced ? "traced segment" : "untraced segment");
    sum_us[traced] += p.mean_latency_us() * static_cast<double>(p.ops());
    n_ops[traced] += static_cast<double>(p.ops());
    if (!traced) continue;
    scans += static_cast<double>(p.pooled(p.scans).count());
    updates += static_cast<double>(p.pooled(p.updates).count());
    add(scan_ops, p.scan_ops);
    add(update_ops, p.update_ops);
    const double adopt =
        static_cast<double>(after.adopted_snapshot - before.adopted_snapshot);
    adopted += adopt;
    cases += adopt +
             static_cast<double>(after.first_collect - before.first_collect) +
             static_cast<double>(after.second_collect - before.second_collect);
  }
  std::printf("layer core (traced segments, %.2f s):\n", opt.seconds / 2);
  std::printf("  register ops per scan %.3f, per update %.3f; adopted "
              "snapshots %.0f of %.0f top-level scans\n",
              static_cast<double>(scan_ops.total()) / scans,
              static_cast<double>(update_ops.total()) / updates, adopted,
              cases);
  r.set("core.scan_reg_ops", static_cast<double>(scan_ops.total()) / scans,
        "count");
  r.set("core.update_reg_ops",
        static_cast<double>(update_ops.total()) / updates, "count");
  r.set("core.scan_adopted_share", cases == 0 ? 0 : adopted / cases, "ratio");
  const double plain_us = sum_us[0] / n_ops[0];
  const double traced_us = sum_us[1] / n_ops[1];
  std::printf("  tracing overhead %.4f us/op (mean %.4f traced vs %.4f "
              "untraced)\n",
              traced_us - plain_us, traced_us, plain_us);
  r.set("trace.overhead_us_per_op", traced_us - plain_us, "us");

  probe_service(opt, tracer, r);
  run_layer_probes(opt, opt.workdir, tracer, r);
  print_span_summary(summarize(tracer.buffers()));
  if (!write_spans(opt.spans_out, tracer.buffers())) {
    r.finding("trace: cannot write " + opt.spans_out);
  }
}

void probe_baselines(double seconds, std::uint64_t seed, RunResult& r) {
  auto measure = [&](Snapshot<std::uint64_t>& snap, const char* name) {
    MixedRunner runner(snap, seed);  // the snapshot-mixed shape
    const Phase p =
        runner.run(seconds, std::vector<SpanBuffer*>(kReaders + 1, nullptr));
    for (const std::string& f : p.findings) {
      r.finding(std::string("baseline ") + name + ": " + f);
    }
    const LatencyHisto scans = p.pooled(p.scans);
    const double p50 = scans.quantile(0.5) / 1000.0;
    std::printf("baselines: %s in the snapshot-mixed shape: scan p50 %.3f us "
                "(n=%llu)\n",
                name, p50, static_cast<unsigned long long>(scans.count()));
    return p50;
  };
  compreg::baselines::AfekSnapshot<std::uint64_t> afek(kComponents, kReaders,
                                                       0);
  r.set("baselines.afek.read_p50_us", measure(afek, "afek"), "us");
  compreg::baselines::SeqlockSnapshot<std::uint64_t> seqlock(kComponents,
                                                             kReaders, 0);
  r.set("baselines.seqlock.read_p50_us", measure(seqlock, "seqlock"), "us");
}

}  // namespace perfbench
