// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR --server-bin PATH --spans-out FILE
//
// Workloads: snapshot-mixed, snapshot-deep, service-read-mostly,
// service-write-heavy.
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics, the tracing overhead,
// and writes its spans to --spans-out. Both print a human-readable
// report, then one JSON result line last. Exit 0 when every output
// check passed, 1 when one failed (the result line is still printed),
// 64 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

// Every per-layer metric a traced run reports, with its unit. A layer
// the workload does not run reads 0 (and says so in the report).
struct Named {
  const char* name;
  const char* unit;
};

const Named kPerLayer[] = {
    {"core.scan_reg_ops", "count"},
    {"core.update_reg_ops", "count"},
    {"core.scan_adopted_share", "ratio"},
    {"registers.hazard_read_ns", "ns"},
    {"registers.hazard_write_ns", "ns"},
    {"baselines.afek.read_p50_us", "us"},
    {"baselines.seqlock.read_p50_us", "us"},
    {"server.read_us_mean", "us"},
    {"server.write_us_mean", "us"},
    {"server.front_read_us", "us"},
    {"server.front_write_us", "us"},
    {"server.batch_occupancy_mean", "count"},
    {"server.quorum_rounds_per_op", "count"},
    {"server.queue_depth_mean", "count"},
    {"server.retries_per_op", "count"},
    {"server.client.send_us_per_op", "us"},
    {"server.client.recv_us_per_op", "us"},
    {"net.real.client.read_us_p50", "us"},
    {"net.real.client.write_us_p50", "us"},
    {"net.real.client.msgs_per_op", "count"},
    {"net.real.client.writeback_skip_ratio", "ratio"},
    {"net.real.client.self_us", "us"},
    {"net.real.transport.poll_wait_us_per_op", "us"},
    {"net.real.transport.send_us_per_frame", "us"},
    {"net.real.transport.bytes_per_op", "B"},
    {"net.real.durable.persist_us_p50", "us"},
    {"net.real.durable.persist_us_p99", "us"},
    {"telemetry.record_ns", "ns"},
    {"trace.overhead_us_per_op", "us"},
};

const Named kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},   {"read_p50_us", "us"},
    {"read_p99_us", "us"},   {"write_p50_us", "us"}, {"write_p99_us", "us"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "snapshot-mixed|snapshot-deep|service-read-mostly|"
               "service-write-heavy "
               "--seed N --seconds S --trace 0|1 --workdir DIR --server-bin "
               "PATH --spans-out FILE\n",
               why);
  return 64;
}

void print_result(const RunResult& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, const Metric& m) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  };
  for (const Named& m : trace ? std::span<const Named>(kPerLayer)
                               : std::span<const Named>(kEndToEnd)) {
    emit(m.name, r.metrics.at(m.name));
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("every flag takes a value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (!std::strcmp(flag, "--workload")) {
      opt.workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      opt.seconds = std::strtod(value, nullptr);
    } else if (!std::strcmp(flag, "--trace")) {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (!std::strcmp(flag, "--workdir")) {
      opt.workdir = value;
    } else if (!std::strcmp(flag, "--server-bin")) {
      opt.server_bin = value;
    } else if (!std::strcmp(flag, "--spans-out")) {
      opt.spans_out = value;
    } else {
      return usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (opt.seconds <= 0 || opt.workdir.empty() || opt.server_bin.empty() ||
      opt.spans_out.empty()) {
    return usage("need --seconds > 0, --workdir, --server-bin, --spans-out");
  }

  RunResult r;
  if (opt.workload == "snapshot-mixed") {
    perfbench::run_snapshot(opt, 4, r);
  } else if (opt.workload == "snapshot-deep") {
    perfbench::run_snapshot(opt, 6, r);
  } else if (opt.workload == "service-read-mostly") {
    perfbench::run_service(opt, 5, r);
  } else if (opt.workload == "service-write-heavy") {
    perfbench::run_service(opt, 90, r);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  const double error_rate =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  error_rate %.6f (%llu failed of %llu attempted)\n",
              error_rate, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  if (r.attempted == 0) r.finding("no operation was attempted");

  // A layer the workload does not run reads 0; an end-to-end metric
  // can only be missing when a check already failed.
  for (const Named& m : opt.trace ? std::span<const Named>(kPerLayer)
                                  : std::span<const Named>(kEndToEnd)) {
    if (r.metrics.count(m.name) != 0) continue;
    if (opt.trace) {
      std::printf("  %s: layer not run by %s, reported as 0\n", m.name,
                  opt.workload.c_str());
    } else if (r.correct) {
      r.finding(std::string("missing ") + m.name);
    }
    r.set(m.name, 0, m.unit);
  }
  for (const std::string& f : r.findings) std::printf("FINDING: %s\n", f.c_str());
  print_result(r, opt.trace);
  return r.correct ? 0 : 1;
}
