#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: snapshot-mixed, snapshot-deep, service-read-mostly and
service-write-heavy (see perfbench/README.md; BENCHMARK.json lists the ones
steady enough to gate changes on). The first call configures and
builds perfbench/ (and, through it, the register libraries in src/ and the
compreg_server daemon) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls rebuild only what changed. The measuring program gets a
fresh directory under .bench_runs/ and writes the spans of a traced run to
.bench_runs/spans-<workload>.tsv.

Prints the program's report, then one JSON result line last. Exits 0 when
every output check passed, 1 when one failed (the result is still printed),
and 2 without a result when the program cannot be built or run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("snapshot-mixed", "snapshot-deep", "service-read-mostly",
             "service-write-heavy")
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the two programs; output to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/compreg_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: the benchmark builds the repository "
                 "from source and must run inside a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "compreg_server", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args, build_dir):
    runs = ".bench_runs"
    workdir = os.path.join(runs, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--server-bin", os.path.join(build_dir, "compreg_server"),
           "--spans-out", os.path.join(runs, f"spans-{args.workload}.tsv")]
    # Own session: the program, its replicas and its daemon share one
    # process group, which is killed as a whole if the run overstays.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_LIMIT_S} s and was killed")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    code, out = run(args, build_dir)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(out)
        fail(f"the program exited {code} without a result line")
    if code not in (0, 1):
        sys.stderr.write(out)
        fail(f"the program exited {code}")
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        sys.stderr.write(out)
        fail("the program's metrics do not match BENCHMARK.json")
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
