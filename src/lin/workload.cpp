#include "lin/workload.h"

#include <thread>
#include <vector>

#include "core/composite_register.h"
#include "sched/schedule_point.h"
#include "sched/sim_scheduler.h"
#include "util/barrier.h"
#include "util/op_counter.h"
#include "util/rng.h"

namespace compreg::lin {
namespace {

// Under the simulator, every operation invocation and response reports
// one access on a shared `order` cell (kMrmw: multi-writer by design,
// tracked but not flagged). This pins the real-time precedence relation
// of the history to the dependency relation: two scheduler grants that
// record op boundaries are never commuted by schedule exploration
// (sched/dpor.h), so every execution in a Mazurkiewicz class has the
// same precedence order — without it, reversing two register-
// independent grants could turn "completed before" into "overlapping"
// and change a linearizability verdict within the class. Native runs
// pass order == nullptr (their precedence comes from real time).
void writer_body(core::Snapshot<std::uint64_t>& snap, HistoryRecorder& rec,
                 int component, const WorkloadConfig& cfg,
                 const sched::AccessLabel* order) {
  std::uint64_t last_id = 0;
  for (int i = 1; i <= cfg.writes_per_writer; ++i) {
    const std::uint64_t value =
        write_value(component, static_cast<std::uint64_t>(i));
    WriteRec w;
    w.component = component;
    w.value = value;
    w.proc = component;
    w.start = rec.clock().tick();
    if (order != nullptr) sched::observe(order->write());
    OpWindow win;
    try {
      w.id = snap.update(component, value);
    } catch (const sched::ProcessParked&) {
      // Crash-stop mid-Write: record it as pending with the id it was
      // being assigned (per-component write ids are sequential), so the
      // checkers can account for its effect if a Read observed it.
      w.id = last_id + 1;
      w.end = kPendingEnd;
      w.cost = win.delta().total();
      rec.record_write(component, w);
      throw;
    }
    w.cost = win.delta().total();
    w.end = rec.clock().tick();
    if (order != nullptr) sched::observe(order->write());
    last_id = w.id;
    rec.record_write(component, w);
    if (cfg.burst > 0 && i % cfg.burst == 0) {
      for (unsigned spin = 0; spin < cfg.pause_spins; ++spin) {
        asm volatile("" ::: "memory");  // quiet gap the optimizer keeps
      }
    }
  }
}

void reader_body(core::Snapshot<std::uint64_t>& snap, HistoryRecorder& rec,
                 int reader, int scans, const sched::AccessLabel* order) {
  const int proc = snap.components() + reader;
  std::vector<core::Item<std::uint64_t>> items;
  for (int i = 0; i < scans; ++i) {
    ReadRec r;
    r.proc = proc;
    r.start = rec.clock().tick();
    if (order != nullptr) sched::observe(order->write());
    OpWindow win;
    try {
      snap.scan_items(reader, items);
    } catch (const sched::ProcessParked&) {
      // Crash-stop mid-Read: it returned nothing; record the pending
      // interval with no ids/values.
      r.end = kPendingEnd;
      r.cost = win.delta().total();
      rec.record_read(proc, r);
      throw;
    }
    r.cost = win.delta().total();
    r.end = rec.clock().tick();
    if (order != nullptr) sched::observe(order->write());
    r.ids.resize(items.size());
    r.values.resize(items.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
      r.ids[k] = items[k].id;
      r.values[k] = items[k].val;
    }
    rec.record_read(proc, r);
  }
}

}  // namespace

History run_native_workload(core::Snapshot<std::uint64_t>& snap,
                            const WorkloadConfig& cfg) {
  const int c = snap.components();
  const int r = snap.readers();
  HistoryRecorder rec(c, std::vector<std::uint64_t>(
                             static_cast<std::size_t>(c), cfg.initial),
                      c + r);
  SpinBarrier barrier(c + r);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(c + r));
  for (int k = 0; k < c; ++k) {
    threads.emplace_back([&, k] {
      // Label the thread for the conformance analyzer (no scheduler is
      // attached, so the id is inert outside labeled access reports).
      sched::thread_context().proc_id = k;
      sched::StressInterleaving stress(cfg.stress_permille,
                                       cfg.seed * 1315423911u +
                                           static_cast<std::uint64_t>(k));
      barrier.arrive_and_wait();
      writer_body(snap, rec, k, cfg, /*order=*/nullptr);
    });
  }
  for (int j = 0; j < r; ++j) {
    threads.emplace_back([&, j] {
      sched::thread_context().proc_id = c + j;
      sched::StressInterleaving stress(cfg.stress_permille,
                                       cfg.seed * 2654435761u + 1000003u +
                                           static_cast<std::uint64_t>(j));
      barrier.arrive_and_wait();
      reader_body(snap, rec, j, cfg.scans_per_reader, /*order=*/nullptr);
    });
  }
  for (auto& t : threads) t.join();
  return rec.merge();
}

std::shared_ptr<HistoryRecorder> spawn_sim_workload(
    sched::SimScheduler& sim, core::Snapshot<std::uint64_t>& snap,
    const WorkloadConfig& cfg) {
  const int c = snap.components();
  const int r = snap.readers();
  auto rec = std::make_shared<HistoryRecorder>(
      c,
      std::vector<std::uint64_t>(static_cast<std::size_t>(c), cfg.initial),
      c + r);
  // One shared boundary-order cell per workload: see writer_body.
  auto order = std::make_shared<sched::AccessLabel>(
      "workload.op_order", sched::Discipline::kMrmw, /*readers=*/0);
  for (int k = 0; k < c; ++k) {
    sim.spawn([&snap, rec, k, cfg, order] {
      writer_body(snap, *rec, k, cfg, order.get());
    });
  }
  for (int j = 0; j < r; ++j) {
    sim.spawn([&snap, rec, j, scans = cfg.scans_per_reader, order] {
      reader_body(snap, *rec, j, scans, order.get());
    });
  }
  return rec;
}

History run_sim_workload(
    core::Snapshot<std::uint64_t>& snap, sched::SchedulePolicy& policy,
    const WorkloadConfig& cfg,
    const std::function<void(sched::SimScheduler&)>& on_sim) {
  sched::SimScheduler sim(policy);
  auto rec = spawn_sim_workload(sim, snap, cfg);
  if (on_sim) on_sim(sim);
  sim.run();
  return rec->merge();
}

// Figure 4 on C=2, R=1. Shared-access maps (one schedule grant = one
// base-register access):
//   Reader scan:  [0]=stmt0 read Y0(x), [1]=stmt2 write Z,
//                 [2]=stmt3 read Y0(a), [3]=stmt4 inner scan (b),
//                 [4]=stmt5 read Y0(c), [5]=stmt6 inner scan (d),
//                 [6]=stmt7 read Y0(e)
//   0-Write:      [0]=stmt2 read Z, [1]=stmt3 write Y0,
//                 [2]=stmt4 inner scan, [3]=stmt7 write Y0
//   1-Write:      [0]=write Y[1]   (base case of the recursion)
const std::vector<Fig4Execution>& fig4_executions() {
  static const std::vector<Fig4Execution> executions = {
      // Three 0-Writes overlap the scan's collect window; w+1 lies
      // completely inside it, and its snapshot predates Writer 1's
      // second write.
      {"Figure 4(a): a full 0-Write inside [r:3, r:7]",
       "reader must adopt the overlapping write w+1's embedded snapshot "
       "(e.seq[1,j] = newseq)",
       {
           0, 0, 0,     // r: x, Z, a   (r:3 done)
           2,           // Writer 1 write #1 (id 1) — lands in w's snapshot
           1, 1, 1, 1,  // w    (0-Write id 1), completely after r:3
           1, 1, 1, 1,  // w+1  (0-Write id 2), completely inside [r:3,r:7]
           2,           // Writer 1 write #2 (id 2) — after w+1's snapshot
           1, 1,        // w+2: reads Z (sees newseq), writes Y0 (stmt 3)
           0, 0, 0, 0,  // r: b, c, d, e  => statement 8 case 1
           1, 1,        // w+2 finishes
       },
       3, 2, 2, 1},
      // The Z read of the middle write v+1 predates r:2.
      {"Figure 4(b): statement 3 exactly twice inside [r:3, r:7]",
       "reader must detect e.wc = a.wc (+) 2 and adopt the middle "
       "write's snapshot",
       {
           1, 1, 1, 1,  // v (0-Write id 1) completes before the scan
           2,           // Writer 1 write #1 (id 1)
           0,           // r: x  (sees v)
           1,           // v+1: reads Z *before* r writes it
           0, 0,        // r: Z := newseq, a (= v, wc 1)
           1, 1, 1,     // v+1: stmt 3 (wc 2), inner scan, stmt 7
           1, 1,        // v+2: reads Z, stmt 3 (wc 0 = 1 (+) 2)
           0, 0, 0, 0,  // r: b, c, d, e  => statement 8 case 2
           1, 1,        // v+2 finishes
       },
       3, 1, 2, 1},
      // Paper Section 4.1's "third and final case": no statement 3
      // between r:3 and r:5.
      {"Statement 8 case 3: quiet window [r:3, r:5]",
       "reader keeps its own first collect (a.item, b)",
       {
           1, 1, 1, 1,     // w1 (0-Write id 1) completes before the scan
           2,              // Writer 1 write #1 (id 1)
           0, 0, 0, 0, 0,  // r: x, Z, a, b, c   (quiet: a.wc == c.wc)
           1, 1,           // w2: reads Z, stmt 3 — after r:5, before r:7
           0, 0,           // r: d, e  => statement 8 case 3
           1, 1,           // w2 finishes
       },
       2, 1, 1, 1},
      // One statement 3 between r:3 and r:5, none between r:5 and r:7.
      {"Statement 8 case 4: quiet window [r:5, r:7]",
       "reader keeps its second collect (c.item, d)",
       {
           1, 1, 1, 1,  // w1 (id 1) completes before the scan
           2,           // Writer 1 write #1 (id 1)
           0, 0, 0, 0,  // r: x, Z, a, b
           1, 1,        // w2: reads Z, stmt 3 — between r:4 and r:5
           0, 0, 0,     // r: c, d, e  => statement 8 case 4
           1, 1,        // w2 finishes
       },
       2, 1, 2, 1},
  };
  return executions;
}

Fig4Replay replay_fig4(const Fig4Execution& e) {
  Fig4Replay out;
  core::CompositeRegister<std::uint64_t> reg(2, 1, 0);
  HistoryRecorder rec(2, {0, 0}, 3);
  sched::ScriptPolicy policy(e.script);
  sched::SimScheduler sim(policy);
  sim.spawn([&] {
    ReadRec r;
    r.proc = 0;
    r.start = rec.clock().tick();
    reg.scan_items(0, out.scan);
    r.end = rec.clock().tick();
    for (const auto& item : out.scan) {
      r.ids.push_back(item.id);
      r.values.push_back(item.val);
    }
    rec.record_read(0, r);
  });
  for (int k = 0; k < 2; ++k) {
    sim.spawn([&, k] {
      const int writes = k == 0 ? e.w0_writes : e.w1_writes;
      for (int i = 1; i <= writes; ++i) {
        WriteRec w;
        w.component = k;
        w.value = 100 * static_cast<std::uint64_t>(k + 1) +
                  static_cast<std::uint64_t>(i);
        w.proc = k + 1;
        w.start = rec.clock().tick();
        w.id = reg.update(k, w.value);
        w.end = rec.clock().tick();
        rec.record_write(k + 1, w);
      }
    });
  }
  sim.run();
  out.trace = sim.trace();
  out.history = rec.merge();
  return out;
}

History run_native_workload_mw(core::MultiWriterSnapshot<std::uint64_t>& snap,
                               const MwWorkloadConfig& cfg) {
  const int m = snap.components();
  const int n = snap.processes();
  const int r = snap.readers() > 0 ? snap.readers() : 1;
  HistoryRecorder rec(m, std::vector<std::uint64_t>(
                             static_cast<std::size_t>(m), cfg.initial),
                      n + r);
  SpinBarrier barrier(n + r);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n + r));
  for (int p = 0; p < n; ++p) {
    threads.emplace_back([&, p] {
      sched::thread_context().proc_id = p;
      sched::StressInterleaving stress(cfg.stress_permille,
                                       cfg.seed * 40503u +
                                           static_cast<std::uint64_t>(p));
      Rng rng(cfg.seed ^ (static_cast<std::uint64_t>(p) << 32));
      barrier.arrive_and_wait();
      for (int i = 1; i <= cfg.writes_per_process; ++i) {
        const int k = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(m)));
        const std::uint64_t value =
            (static_cast<std::uint64_t>(p + 1) << 48) |
            (static_cast<std::uint64_t>(k + 1) << 32) |
            static_cast<std::uint64_t>(i);
        WriteRec w;
        w.component = k;
        w.value = value;
        w.proc = p;
        w.start = rec.clock().tick();
        w.id = snap.update(p, k, value);
        w.end = rec.clock().tick();
        rec.record_write(p, w);
      }
    });
  }
  for (int j = 0; j < r; ++j) {
    threads.emplace_back([&, j] {
      sched::thread_context().proc_id = n + j;
      sched::StressInterleaving stress(cfg.stress_permille,
                                       cfg.seed * 104729u + 7u +
                                           static_cast<std::uint64_t>(j));
      std::vector<core::Item<std::uint64_t>> items;
      barrier.arrive_and_wait();
      for (int i = 0; i < cfg.scans_per_reader; ++i) {
        ReadRec rr;
        rr.proc = n + j;
        rr.start = rec.clock().tick();
        snap.scan_items(j, items);
        rr.end = rec.clock().tick();
        rr.ids.resize(items.size());
        rr.values.resize(items.size());
        for (std::size_t k = 0; k < items.size(); ++k) {
          rr.ids[k] = items[k].id;
          rr.values[k] = items[k].val;
        }
        rec.record_read(n + j, rr);
      }
    });
  }
  for (auto& t : threads) t.join();
  return rec.merge();
}

}  // namespace compreg::lin
