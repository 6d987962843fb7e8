#!/usr/bin/env python3
"""Validate BENCH_*.json files against the shared schema wrapper.

Every bench emitter (bench_net, bench_dpor, bench_waitfreedom,
bench_throughput, compreg_loadgen's BENCH_server.json and
BENCH_transport.json, and tools/perf_pairs.py's paired perfbench rows)
writes the same envelope:

    {"schema_version": 1, "bench": "<name>", "rows": [ {...}, ... ]}

This checker enforces the contract downstream diffing relies on:

  * top-level keys are exactly schema_version / bench / rows
  * schema_version == 1 (bump the constant here in lockstep with the
    emitters when a row key changes meaning)
  * bench is a non-empty string, unique across the files checked
  * rows is a non-empty array of flat objects (scalar values only --
    nested containers would break line-oriented diffing)
  * every row carries an "experiment" tag
  * rows that share the same key-set within a bench agree on value
    types key-by-key (an int column cannot silently become a string)
  * benches with a registered column contract (REQUIRED_COLUMNS) carry
    every required column in every row — the server soak, the
    transport sweep and the throughput series feed dashboards that
    hard-code these names

Usage: check_bench_schema.py FILE [FILE...]
Exit codes: 0 all files conform, 1 violations found, 64 usage/IO error.
"""

import json
import sys

SCHEMA_VERSION = 1
_SCALARS = (str, int, float, bool, type(None))

# Per-bench column contracts. A bench listed here must carry every named
# column in every row; benches not listed are only held to the generic
# envelope rules above. Extend in lockstep with the emitter.
REQUIRED_COLUMNS = {
    "server": {
        "experiment", "kind", "clients", "ops", "throughput_ops_per_s",
        "p50_us", "p99_us", "p999_us", "unavailable_rate", "busy",
        "timeouts", "batch_occupancy_mean", "kills",
    },
    "perf_pairs": {
        "experiment", "workload", "metric", "better", "pairs", "seconds",
        "first_seed", "base_median", "base_q1", "base_q3", "change_median",
        "change_q1", "change_q3", "wins", "gain", "base_failed_ops",
        "change_failed_ops",
    },
    "server_telemetry": {"experiment", "kind", "name"},
    "throughput": {
        "experiment", "name", "threads", "iterations", "ns_per_op",
    },
    "transport": {
        "experiment", "kind", "writer_ops_per_cell", "loss_permille", "f",
        "ops", "throughput_ops_per_s", "p50_us", "p99_us", "retries_per_op",
        "msgs_per_op", "pending_writes", "unavailable_reads",
    },
}


def check_file(path, errors):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        errors.append("%s: unreadable or invalid JSON: %s" % (path, exc))
        return None
    if not isinstance(doc, dict):
        errors.append("%s: top level is %s, expected object" %
                      (path, type(doc).__name__))
        return None
    extra = sorted(set(doc) - {"schema_version", "bench", "rows"})
    missing = sorted({"schema_version", "bench", "rows"} - set(doc))
    if extra:
        errors.append("%s: unexpected top-level keys %s" % (path, extra))
    if missing:
        errors.append("%s: missing top-level keys %s" % (path, missing))
        return None
    if doc["schema_version"] != SCHEMA_VERSION:
        errors.append("%s: schema_version is %r, expected %d" %
                      (path, doc["schema_version"], SCHEMA_VERSION))
    bench = doc["bench"]
    if not isinstance(bench, str) or not bench:
        errors.append("%s: bench is %r, expected non-empty string" %
                      (path, bench))
        bench = None
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        errors.append("%s: rows is %s, expected non-empty array" %
                      (path, "empty" if rows == [] else type(rows).__name__))
        return bench

    # type_map[key-set][key] -> type name seen first for that column.
    type_map = {}
    required = REQUIRED_COLUMNS.get(bench, set())
    for i, r in enumerate(rows):
        if not isinstance(r, dict):
            errors.append("%s: rows[%d] is %s, expected object" %
                          (path, i, type(r).__name__))
            continue
        if "experiment" not in r:
            errors.append("%s: rows[%d] has no \"experiment\" tag" %
                          (path, i))
        for col in sorted(required - set(r)):
            errors.append(
                "%s: rows[%d] is missing required column \"%s\" for "
                "bench %r" % (path, i, col, bench))
        shape = frozenset(r)
        cols = type_map.setdefault(shape, {})
        for k, v in r.items():
            if not isinstance(v, _SCALARS):
                errors.append(
                    "%s: rows[%d].%s is %s, expected a scalar" %
                    (path, i, k, type(v).__name__))
                continue
            # bool is an int subclass; keep it distinct, fold int/float.
            t = ("bool" if isinstance(v, bool) else
                 "number" if isinstance(v, (int, float)) else
                 type(v).__name__)
            if v is None:
                continue  # null never conflicts
            prev = cols.setdefault(k, t)
            if prev != t:
                errors.append(
                    "%s: rows[%d].%s is %s but earlier rows with the "
                    "same key-set used %s" % (path, i, k, t, prev))
    return bench


def main(argv):
    if len(argv) < 2:
        sys.stderr.write("usage: check_bench_schema.py FILE [FILE...]\n")
        return 64
    errors = []
    seen = {}
    for path in argv[1:]:
        bench = check_file(path, errors)
        if bench is not None:
            if bench in seen:
                errors.append(
                    "%s: bench name %r already used by %s" %
                    (path, bench, seen[bench]))
            else:
                seen[bench] = path
    if errors:
        for e in errors:
            sys.stderr.write("check_bench_schema: %s\n" % e)
        sys.stderr.write("check_bench_schema: %d violation(s) in %d "
                         "file(s)\n" % (len(errors), len(argv) - 1))
        return 1
    print("check_bench_schema: %d file(s) conform (schema_version %d): %s" %
          (len(argv) - 1, SCHEMA_VERSION,
           ", ".join(sorted(seen))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
