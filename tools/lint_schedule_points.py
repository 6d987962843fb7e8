#!/usr/bin/env python3
"""Static lint: shared-memory accesses must announce schedule points.

The simulator (sched/sim_scheduler.h) and every analysis built on it —
DPOR race reversal, dependence-aware sleep sets, class-orbit covering,
the conformance analyzer — see an execution ONLY through the labeled
sched::point()/sched::observe() calls that implementations interleave
with their shared-memory operations. A raw std::atomic op or mutex
acquisition with no schedule point in the same function is invisible to
the scheduler: schedules cannot preempt around it, DPOR cannot reverse
races through it, and a certificate produced over such code silently
under-approximates the schedule space.

This lint enforces the discipline mechanically over the implementation
trees (src/registers, src/baselines, src/net): every function whose
body performs a synchronization operation (atomic load/store/RMW,
mutex lock/unlock, lock_guard/unique_lock/scoped_lock construction)
must also contain at least one labeled schedule-point call
(sched::point / sched::observe) or a ScopedAccessObserver.

The comment/string-stripping lexer and brace-scope parser live in
tools/analyze/cpplex.py, shared with the multi-pass static auditor
(tools/analyze) that grew out of this lint.

Exemptions:
  - Constructors and destructors: they run before the object is shared
    (or after the last reader detaches), outside the scheduled region.
  - Functions carrying a `// sched-lint: exempt(<reason>)` marker on
    any line of their body or header. The reason is mandatory — an
    exemption without a written justification is itself a finding.

Usage:
  lint_schedule_points.py [--root DIR] [--self-test] [PATHS...]

Exit codes: 0 clean, 1 findings, 64 usage/internal error.
"""

import argparse
import os
import re
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "analyze"))

import cpplex  # noqa: E402

DEFAULT_TREES = ("src/registers", "src/baselines", "src/net")

# Directory-level exemptions: subtrees under the linted roots whose code
# deliberately runs OUTSIDE the simulated scheduler, where a labeled
# schedule point would be meaningless. The reason is mandatory and is
# printed whenever the subtree is skipped, so the exemption stays a
# visible, justified decision rather than a silent hole.
EXEMPT_DIRS = {
    "src/net/real": (
        "real-socket transport: this code runs in separate OS processes "
        "under real kernels and real clocks, below the Transport seam "
        "where the labeled-schedule-point discipline stops by design; "
        "the protocol it drives is net/abd_core.h, which DPOR and the "
        "amnesia mutants cover through the simulator, so only the "
        "socket transport is left to compreg_loadgen --direct chaos/kill-9 "
        "runs"
    ),
}

SYNC_OP = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"lock|unlock|try_lock)\s*\("
    r"|std::(lock_guard|unique_lock|scoped_lock)\b"
)

SCHED_POINT = re.compile(
    r"\bsched::(point|observe)\s*\(|\bScopedAccessObserver\b"
)

EXEMPT_MARKER = re.compile(r"sched-lint:\s*exempt\s*\(([^)]*)\)")
EXEMPT_NO_REASON = re.compile(r"sched-lint:\s*exempt(?!\s*\()")


def lint_file(path, text):
    findings = []
    src = cpplex.SourceFile(path, text)

    exempt_lines = {}
    for lineno, raw in enumerate(src.lines, 1):
        m = EXEMPT_MARKER.search(raw)
        if m:
            if not m.group(1).strip():
                findings.append(
                    (lineno, "sched-lint: exempt() marker has an empty "
                             "reason; justify the exemption")
                )
            exempt_lines[lineno] = m.group(1).strip()
        elif EXEMPT_NO_REASON.search(raw):
            findings.append(
                (lineno, "sched-lint: exempt marker without a (reason); "
                         "write sched-lint: exempt(<why>)")
            )

    for lineno, cl in enumerate(src.clean_lines, 1):
        for m in SYNC_OP.finditer(cl):
            fn = src.enclosing_function(lineno)
            if fn is None:
                findings.append(
                    (lineno,
                     f"synchronization op `{m.group(0).strip()}` outside "
                     "any recognized function scope")
                )
                continue
            if src.is_ctor_or_dtor(fn):
                continue  # ctor/dtor: runs outside the shared region
            # A marker inside the body, on the header line, or on the
            # line(s) directly above the function exempts it.
            if any(fn.start - 2 <= el <= fn.end for el in exempt_lines):
                continue
            if SCHED_POINT.search(src.function_body(fn)):
                continue
            findings.append(
                (lineno,
                 f"`{fn.name or fn.header[:40]}` performs "
                 f"`{m.group(0).strip()}` with no sched::point/"
                 "sched::observe in scope — invisible to the scheduler; "
                 "add a labeled point or sched-lint: exempt(<reason>)")
            )
            break  # one finding per op line is enough
    return findings


SELF_TEST_BAD = """
#include <atomic>
namespace compreg::registers {
class Sneaky {
 public:
  Sneaky() { v_.store(0); }                  // ctor: auto-exempt
  ~Sneaky() { (void)v_.load(); }             // dtor: auto-exempt
  int quiet_read() { return v_.load(); }     // FINDING: no point
  int loud_read() {
    sched::point(access_.read(0));
    return v_.load();
  }
  // sched-lint: exempt(writer-private maintenance, not shared state)
  void maintenance() { v_.exchange(1); }
 private:
  std::atomic<int> v_{0};
};
}  // namespace compreg::registers
"""


def self_test():
    findings = lint_file("<self-test>", SELF_TEST_BAD)
    bad = [f for f in findings if "quiet_read" in f[1]]
    extra = [f for f in findings if "quiet_read" not in f[1]]
    if len(bad) != 1 or extra:
        print("lint self-test FAILED:", file=sys.stderr)
        for lineno, msg in findings:
            print(f"  <self-test>:{lineno}: {msg}", file=sys.stderr)
        print(f"  expected exactly one finding (quiet_read), got "
              f"{len(bad)} + {len(extra)} others", file=sys.stderr)
        return 1
    print("lint self-test OK: seeded violation flagged, exemptions honored")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="lint a built-in seeded violation and exit")
    ap.add_argument("paths", nargs="*",
                    help=f"trees/files to lint (default: {DEFAULT_TREES})")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test())

    def exempt_reason(path):
        rel = os.path.normpath(os.path.relpath(path, args.root))
        rel = rel.replace(os.sep, "/")
        for d, reason in EXEMPT_DIRS.items():
            if rel == d or rel.startswith(d + "/"):
                return d, reason
        return None

    targets = args.paths or [os.path.join(args.root, t) for t in DEFAULT_TREES]
    files = []
    skipped = {}
    for t in targets:
        if os.path.isfile(t):
            hit = exempt_reason(t)
            if hit:
                skipped[hit[0]] = hit[1]
            else:
                files.append(t)
        elif os.path.isdir(t):
            for dirpath, dirnames, names in os.walk(t):
                hit = exempt_reason(dirpath)
                if hit:
                    skipped[hit[0]] = hit[1]
                    dirnames[:] = []
                    continue
                files.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(names)
                    if f.endswith((".h", ".cc", ".cpp", ".hpp"))
                )
        else:
            print(f"lint_schedule_points: no such path: {t}", file=sys.stderr)
            sys.exit(64)
    for d in sorted(skipped):
        print(f"lint_schedule_points: skipping {d}/ — {skipped[d]}")

    total = 0
    for path in sorted(files):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for lineno, msg in lint_file(path, text):
            print(f"{path}:{lineno}: {msg}")
            total += 1
    if total:
        print(f"lint_schedule_points: {total} finding(s)")
        sys.exit(1)
    print(f"lint_schedule_points: {len(files)} files clean")
    sys.exit(0)


if __name__ == "__main__":
    main()
