#!/usr/bin/env python3
"""Paired perfbench runs: a base checkout against a changed one.

Runs `python3 perfbench/run.py` in two checkouts, alternating which side
goes first, for N pairs per workload. Pair i uses seed SEED+i on both
sides. Before the first pair, each checkout is copied into a temporary
directory (its tracked and untracked files, not its .bench_build), and
both sides run from the copies: run.py rebuilds before every run, so an
edit made to a checkout during the pairs cannot reach the measurement.
Each copy builds into its own CARGO_TARGET_DIR (<copy>/.bench_build), so
neither side rebuilds the other's tree.

As each run ends, prints its seed, side and metric values to stderr,
so the per-pair values behind a median (of a bimodal metric, say) can
be read back. For every metric the run reports, prints each side's
median and quartiles, the change in the median, the pairs the change
won (ties count for neither) and the verdict of the gain rule: the
change wins at least nine tenths of the pairs and the medians differ by
more than the base's interquartile range. The metric's direction and
bound come from the base checkout's BENCHMARK.json.

Writes the rows as a BENCH_*.json in the shared envelope
({"schema_version": 1, "bench": "perf_pairs", "rows": [...]}); the
column contract is REQUIRED_COLUMNS["perf_pairs"] in
check_bench_schema.py.

Usage:
    perf_pairs.py --base DIR --change DIR --workload W [--workload W ...]
                  --pairs N --seconds S --seed SEED [--trace 0|1]
                  [--experiment TAG] [--json OUT]
    perf_pairs.py --self-test     # canned rows only; never runs perfbench

Exit codes: 0 done, 1 a run failed or reported a failed check,
64 usage error.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = "perf_pairs"


def metric_specs(checkout):
    """{name: (better, bound or None)} from a checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {}
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        out[m["name"]] = (m["better"], m.get("bound"))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(workload, metric, unit, better, bound, base, change):
    """One row from paired values: base[i] and change[i] share a seed."""
    assert len(base) == len(change) and base
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = ties = 0
    for b, c in zip(base, change):
        if b == c:
            ties += 1
        elif (c < b) == (better == "lower"):
            wins += 1
    gap = cm - bm
    improved = gap < 0 if better == "lower" else gap > 0
    gain = (wins >= math.ceil(0.9 * len(base)) and improved and
            abs(gap) > b3 - b1)
    worse = gap if better == "lower" else -gap
    within = None
    if bound is not None and bm != 0:
        within = worse / abs(bm) <= bound
    return {
        "workload": workload, "metric": metric, "unit": unit,
        "better": better, "pairs": len(base),
        "base_median": bm, "base_q1": b1, "base_q3": b3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "change_pct": 100.0 * gap / bm if bm != 0 else None,
        "wins": wins, "ties": ties, "gain": gain, "within_bound": within,
    }


def rows_from_runs(workload, specs, base_runs, change_runs):
    """Rows for one workload from two lists of perfbench result dicts."""
    names = sorted(base_runs[0]["metrics"])
    rows = []
    for name in names:
        better, bound = specs.get(name, ("lower", None))
        unit = base_runs[0]["metrics"][name].get("unit", "")
        row = summarize(workload, name, unit, better, bound,
                        [r["metrics"][name]["value"] for r in base_runs],
                        [r["metrics"][name]["value"] for r in change_runs])
        row["base_failed_ops"] = sum(r.get("failed", 0) for r in base_runs)
        row["change_failed_ops"] = sum(r.get("failed", 0)
                                       for r in change_runs)
        rows.append(row)
    return rows


def envelope(rows, experiment, seconds, seed):
    out = []
    for r in rows:
        full = {"experiment": experiment, "seconds": seconds,
                "first_seed": seed}
        full.update(r)
        out.append(full)
    return {"schema_version": 1, "bench": BENCH, "rows": out}


def print_rows(rows):
    print("%-15s %-26s %12s %25s %12s %25s %8s %5s %s" %
          ("workload", "metric", "base p50", "base [q1, q3]", "change p50",
           "change [q1, q3]", "delta", "wins", "verdict"))
    for r in rows:
        pct = ("%+.1f%%" % r["change_pct"]
               if r["change_pct"] is not None else "-")
        verdict = "gain" if r["gain"] else ""
        if r["within_bound"] is False:
            verdict = "OUT OF BOUND"
        print("%-15s %-26s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] "
              "%8s %2d/%-2d %s" %
              (r["workload"], r["metric"], r["base_median"], r["base_q1"],
               r["base_q3"], r["change_median"], r["change_q1"],
               r["change_q3"], pct, r["wins"], r["pairs"], verdict))


def tree_files(tree):
    """Relative paths of a checkout's tracked and untracked files.

    In a git work tree, that is what `git ls-files` lists, ignored files
    excluded; elsewhere, every file. Never anything under .bench_build.
    """
    try:
        out = subprocess.run(
            ["git", "-C", tree, "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=True).stdout
        paths = [p for p in out.decode().split("\0") if p]
    except (OSError, subprocess.CalledProcessError):
        paths = []
        for d, dirs, files in os.walk(tree):
            dirs[:] = [x for x in dirs if x != ".bench_build"]
            paths += [os.path.relpath(os.path.join(d, f), tree)
                      for f in files]
    return [p for p in paths
            if p.split("/")[0] != ".bench_build" and
            os.path.lexists(os.path.join(tree, p))]


def freeze(tree, dest):
    """Copies tree_files(tree) into dest and returns dest."""
    for rel in tree_files(tree):
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(tree, rel), target, follow_symlinks=False)
    return dest


def run_one(checkout, workload, seed, seconds, trace):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(checkout, ".bench_build")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode not in (0, 1) or result is None:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("%s: perfbench exited %d without a result" %
                           (checkout, proc.returncode))
    return result


def measure(args):
    specs = metric_specs(args.base)
    rows = []
    bad = False
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        trees = {side: freeze(getattr(args, side), os.path.join(tmp, side))
                 for side in ("base", "change")}
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                seed = args.seed + i
                order = (("base", "change") if i % 2 == 0
                         else ("change", "base"))
                for side in order:
                    result = run_one(trees[side], workload, seed,
                                     args.seconds, args.trace)
                    bad = bad or not result.get("correct", False)
                    runs[side].append(result)
                    values = " ".join(
                        "%s=%.6g" % (name, m["value"]) for name, m in
                        sorted(result.get("metrics", {}).items()))
                    print("%s pair %d seed %d %s done (failed %d) %s" %
                          (workload, i + 1, seed, side,
                           result.get("failed", 0), values),
                          file=sys.stderr, flush=True)
            rows += rows_from_runs(workload, specs, runs["base"],
                                   runs["change"])
    print_rows(rows)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(envelope(rows, args.experiment, args.seconds,
                               args.seed), f, indent=1)
            f.write("\n")
    return 1 if bad else 0


def self_test():
    """Checks the summary rules on canned rows; runs no benchmark."""
    sys.path.insert(0, HERE)
    import check_bench_schema  # noqa: E402 - same directory

    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    def result(values, failed=0):
        return {"correct": True, "failed": failed, "metrics": {
            k: {"value": v, "unit": "us"} for k, v in values.items()}}

    specs = {"write_p50_us": ("lower", 0.25), "ops_per_s": ("higher", 0.25),
             "read_p50_us": ("lower", 0.25)}
    base = [result({"write_p50_us": 1.30 + 0.01 * (i % 3),
                    "ops_per_s": 1000.0 + i,
                    "read_p50_us": 1.0 + 0.5 * (i % 2)}) for i in range(10)]
    change = [result({"write_p50_us": 1.17 + 0.01 * (i % 3),
                      "ops_per_s": 1100.0 + i,
                      "read_p50_us": 1.0 + 0.5 * ((i + 1) % 2)},
                     failed=1 if i == 4 else 0) for i in range(10)]
    rows = {r["metric"]: r
            for r in rows_from_runs("w", specs, base, change)}

    w = rows["write_p50_us"]
    expect(w["wins"] == 10 and w["ties"] == 0, "lower-is-better wins")
    expect(abs(w["base_median"] - 1.31) < 1e-9, "base median")
    # Inclusive quartiles of 4 x 1.30, 3 x 1.31, 3 x 1.32.
    expect(abs(w["base_q1"] - 1.30) < 1e-9 and
           abs(w["base_q3"] - 1.3175) < 1e-9, "base quartiles")
    expect(w["gain"] and w["within_bound"], "clear lower-is-better gain")
    o = rows["ops_per_s"]
    expect(o["wins"] == 10 and o["gain"], "higher-is-better direction")
    expect(abs(o["change_pct"] - 100.0 * 100 / 1004.5) < 1e-9, "change_pct")
    r = rows["read_p50_us"]
    expect(r["wins"] == 5 and not r["gain"] and r["within_bound"],
           "bimodal metric: no gain, still within its bound")
    expect(w["base_failed_ops"] == 0 and w["change_failed_ops"] == 1,
           "failed ops summed per side")
    # Ties count for neither side; 9 of 10 is enough, 8 is not.
    tie = summarize("w", "m", "us", "lower", None,
                    [2.0] * 10, [2.0] + [1.0] * 9)
    expect(tie["ties"] == 1 and tie["wins"] == 9 and tie["gain"],
           "ties count for neither; 9 of 10 wins is enough")
    spread = summarize("w", "m", "us", "lower", None,
                       [2.0, 2.0] + [3.0] * 8, [2.5] * 2 + [2.9] * 8)
    expect(spread["wins"] == 8 and not spread["gain"], "8/10 is no gain")
    noisy = summarize("w", "m", "us", "lower", None,
                      [1.0, 2.0, 3.0, 4.0, 5.0] * 2,
                      [0.9, 1.9, 2.9, 3.9, 4.9] * 2)
    expect(noisy["wins"] == 10 and not noisy["gain"],
           "a 10/10 win smaller than the base IQR is no gain")
    slower = summarize("w", "m", "us", "lower", 0.25, [1.0] * 4, [1.3] * 4)
    expect(slower["within_bound"] is False, "30% worse is out of a 25% bound")

    doc = envelope(list(rows.values()), "E0", 6, 501)
    path = os.path.join(os.environ.get("TMPDIR", "/tmp"),
                        "perf_pairs_self_test_%d.json" % os.getpid())
    try:
        with open(path, "w") as f:
            json.dump(doc, f)
        errors = []
        expect(check_bench_schema.check_file(path, errors) == BENCH and
               not errors, "envelope passes check_bench_schema: %s" % errors)
    finally:
        os.remove(path)

    failures += check_freeze()

    for f in failures:
        print("perf_pairs self-test FAILED: %s" % f)
    if not failures:
        print("perf_pairs self-test: OK")
    return 1 if failures else 0


def check_freeze():
    """A frozen copy keeps tracked and untracked files, drops .bench_build,
    and does not see an edit made to the tree after the copy."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="perf_pairs_self_test-") as tmp:
        tree = os.path.join(tmp, "tree")
        files = {"tracked.txt": "old\n", "src/untracked.txt": "u\n",
                 ".bench_build/CMakeCache.txt": "cache\n"}
        for rel, text in files.items():
            os.makedirs(os.path.dirname(os.path.join(tree, rel)),
                        exist_ok=True)
            with open(os.path.join(tree, rel), "w") as f:
                f.write(text)
        # A git work tree when git is there; tree_files() walks otherwise.
        try:
            for cmd in (["init", "-q"], ["add", "tracked.txt"]):
                subprocess.run(["git", "-C", tree] + cmd, check=True,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        except (OSError, subprocess.CalledProcessError):
            pass
        copy = freeze(tree, os.path.join(tmp, "copy"))
        with open(os.path.join(tree, "tracked.txt"), "w") as f:
            f.write("edited after the copy\n")

        def read(rel):
            path = os.path.join(copy, rel)
            if not os.path.isfile(path):
                return None
            with open(path) as f:
                return f.read()

        if read("tracked.txt") != "old\n":
            failures.append("an edit after the copy reached the copy")
        if read("src/untracked.txt") != "u\n":
            failures.append("an untracked file was not copied")
        if os.path.exists(os.path.join(copy, ".bench_build")):
            failures.append(".bench_build was copied")
    return failures


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--base")
    p.add_argument("--change")
    p.add_argument("--workload", action="append")
    p.add_argument("--pairs", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--experiment", default="pairs")
    p.add_argument("--json")
    try:
        args = p.parse_args(argv[1:])
    except SystemExit as e:
        return 64 if e.code else 0
    if args.self_test:
        return self_test()
    missing = [f for f in ("base", "change", "workload", "pairs", "seconds",
                           "seed") if getattr(args, f) is None]
    if missing or args.pairs < 1:
        sys.stderr.write("perf_pairs: missing or bad %s\n" %
                         ", ".join("--" + m for m in missing or ["pairs"]))
        return 64
    args.base = os.path.abspath(args.base)
    args.change = os.path.abspath(args.change)
    try:
        return measure(args)
    except RuntimeError as e:
        sys.stderr.write("perf_pairs: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
