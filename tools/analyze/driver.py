"""Driver for tools/analyze: pass registry, exemption grammar, output.

Runs every registered static-analysis pass over the implementation
trees and reports findings as `path:line: [pass] message` plus a
machine-readable AUDIT.json. Exit codes: 0 clean, 1 findings, 64 usage.

Exemption grammar
-----------------
A finding is suppressed by a marker comment

    // audit: exempt(<pass>, <reason>)

where <pass> names a registered pass (or `all`) and <reason> is
MANDATORY free text — an exemption without a written reason, or naming
an unknown pass, is itself a finding. Marker placement decides scope:

  * inside a function body, on its header line, or on the two lines
    directly above it: exempts that function for that pass;
  * inside a class/struct body but outside any member function:
    exempts that record (layout findings anchor to member lines);
  * outside any scope (file top level): exempts the whole file.

Directory-level exemptions live in EXEMPT_DIRS below with the same
mandatory-reason rule; they are printed whenever skipped so the hole
stays visible.

Every used exemption is recorded in AUDIT.json next to the findings,
so "0 findings" always comes with the list of judgement calls it rests
on.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import blocking  # noqa: E402
import cpplex  # noqa: E402
import layout  # noqa: E402
import memorder  # noqa: E402
import schedpoint  # noqa: E402
import waitfree  # noqa: E402

PASSES = {p.NAME: p
          for p in (waitfree, blocking, memorder, layout, schedpoint)}

DEFAULT_TREES = (
    "src/registers",
    "src/baselines",
    "src/core",
    "src/net",
    "src/prmw",
    "src/telemetry",
    "src/server",
)

# (directory, pass) -> mandatory reason. These subtrees run OUTSIDE the
# wait-free shared-memory model (and the simulator) by design, so some
# passes do not apply; the other passes still run there.
EXEMPT_DIRS = {
    ("src/net/real", "waitfree"): (
        "real-socket transport: separate OS processes under real kernels; "
        "progress is wall-clock-bounded by Deadline/backoff budgets and "
        "verified by compreg_loadgen --direct chaos runs, not by per-step "
        "wait-freedom"
    ),
    ("src/net/real", "blocking"): (
        "real-socket transport: epoll waits, syscalls, heap buffers and "
        "sleeps are the point of this layer; the wait-free discipline "
        "stops at the Transport seam (see docs/fault_model.md)"
    ),
    ("src/net/real", "schedpoint"): (
        "real-socket transport: this code runs in separate OS processes "
        "under real kernels and real clocks, below the Transport seam "
        "where the labeled-schedule-point discipline stops by design; "
        "the protocol it drives is net/abd_core.h, which DPOR and the "
        "amnesia mutants cover through the simulator, so only the "
        "socket transport is left to compreg_loadgen --direct chaos/kill-9 "
        "runs"
    ),
    ("src/server", "waitfree"): (
        "register service layer: thread handoff between front-end and "
        "workers is mutex+condvar by design (like src/net/real, it sits "
        "above the Transport seam); the wait-free discipline applies to "
        "the telemetry recorders on its operation paths, which live in "
        "src/telemetry and are audited in full"
    ),
    ("src/server", "blocking"): (
        "register service layer: the Batcher handoffs and the blocking "
        "client use mutexes, condvars and socket waits on purpose; liveness is "
        "wall-clock-bounded by attempt budgets and certified by the "
        "compreg_loadgen soak ctests, not by per-step wait-freedom"
    ),
}
# The schedpoint pass covers only the simulator-scheduled trees
# (src/registers, src/baselines, src/net).
EXEMPT_DIRS.update({
    (d, "schedpoint"): (
        "not simulator-scheduled code: this tree reaches shared memory "
        "only through src/registers, src/baselines and src/net, whose "
        "schedule points the pass checks, or runs outside the simulator"
    )
    for d in ("src/core", "src/prmw", "src/telemetry", "src/server")
})

EXEMPT_MARKER = re.compile(
    r"audit:\s*exempt\s*\(\s*([\w-]+)\s*,\s*([^)]*)\)"
)
# A marker opens and closes on one line. Any other `audit: exempt` —
# no parenthesis, no pass, or a reason wrapped onto the next comment
# line — is malformed, never silently dropped.
EXEMPT_MALFORMED = re.compile(r"audit:\s*exempt\b")


class Exemption:
    __slots__ = ("pass_name", "reason", "line", "scope", "used")

    def __init__(self, pass_name, reason, line, scope):
        self.pass_name = pass_name  # a pass name or "all"
        self.reason = reason
        self.line = line
        self.scope = scope  # "file" | ("function", Scope) | ("record", Scope)
        self.used = False

    def covers(self, pass_name, lineno, fn_scope):
        if self.pass_name not in ("all", pass_name):
            return False
        if self.scope == "file":
            return True
        kind, s = self.scope
        if kind == "function":
            if fn_scope is not None and fn_scope.start == s.start:
                return True
            # Findings outside any function still honor a marker whose
            # function span contains the finding line (e.g. lambdas).
            return s.start <= lineno <= s.end
        return s.start <= lineno <= s.end  # record span


class AuditFile:
    """Per-file context handed to every pass."""

    def __init__(self, path, rel, text, report):
        self.src = cpplex.SourceFile(path, text)
        self.rel = rel
        self._report = report
        self.exemptions = []
        self._parse_markers()

    def _parse_markers(self):
        src = self.src
        for lineno, raw in enumerate(src.lines, 1):
            m = EXEMPT_MARKER.search(raw)
            if not m:
                if EXEMPT_MALFORMED.search(raw):
                    self._report.raw_finding(
                        "driver", self.rel, lineno, None,
                        "malformed audit marker; write "
                        "audit: exempt(<pass>, <reason>) on one line")
                continue
            pass_name = m.group(1).strip()
            reason = m.group(2).strip()
            if pass_name not in PASSES and pass_name != "all":
                self._report.raw_finding(
                    "driver", self.rel, lineno, None,
                    f"audit: exempt names unknown pass `{pass_name}` "
                    f"(known: {', '.join(sorted(PASSES))}, all)")
                continue
            if not reason:
                self._report.raw_finding(
                    "driver", self.rel, lineno, None,
                    f"audit: exempt({pass_name}, ...) has an empty reason; "
                    "justify the exemption")
                continue
            self.exemptions.append(
                Exemption(pass_name, reason, lineno,
                          self._marker_scope(lineno, pass_name)))

    def _marker_scope(self, lineno, pass_name=None):
        fn = self.src.enclosing_function(lineno)
        if pass_name == "layout" and fn is None:
            # Layout findings anchor to member declarations; a marker in
            # a struct body scopes to the record even when it happens to
            # sit near a method header.
            for name, s in self.src.records:
                if s.start <= lineno <= s.end:
                    return ("record", s)
        if fn is None:
            # A marker on the two lines directly above a function header
            # exempts that function.
            for s in self.src.fn_scopes:
                header_top = self._header_first_line(s)
                if header_top - 2 <= lineno < header_top:
                    return ("function", s)
                if header_top <= lineno <= s.end:
                    return ("function", s)
            for name, s in self.src.records:
                if s.start <= lineno <= s.end:
                    return ("record", s)
            return "file"
        return ("function", fn)

    def _header_first_line(self, scope):
        # Scope.start is the '{' line; the header may start earlier. Walk
        # up while previous lines belong to the header (heuristic: stop
        # at blank/terminator lines). Good enough for marker placement.
        first = scope.start
        header_lines = scope.header.count("\n")
        return max(1, first - header_lines)

    def finding(self, pass_name, lineno, message):
        """Report a finding unless an exemption covers it."""
        fn = self.src.enclosing_function(lineno)
        for ex in self.exemptions:
            if ex.covers(pass_name, lineno, fn):
                ex.used = True
                self._report.exempted(pass_name, self.rel, lineno,
                                      fn.name if fn else None, ex.reason)
                return
        self._report.raw_finding(pass_name, self.rel, lineno,
                                 fn.name if fn else None, message)

    def census(self, pass_name, entry):
        entry = dict(entry)
        entry["file"] = self.rel
        self._report.census(pass_name, entry)


class Report:
    def __init__(self):
        self.findings = []
        self.exemptions_used = []
        self.census_rows = {name: [] for name in PASSES}
        self.files = 0
        self.skipped_dirs = {}

    def raw_finding(self, pass_name, rel, lineno, function, message):
        self.findings.append({
            "pass": pass_name, "file": rel, "line": lineno,
            "function": function, "message": message,
        })

    def exempted(self, pass_name, rel, lineno, function, reason):
        self.exemptions_used.append({
            "pass": pass_name, "file": rel, "line": lineno,
            "function": function, "reason": reason,
        })

    def census(self, pass_name, entry):
        self.census_rows.setdefault(pass_name, []).append(entry)

    def to_json(self, root):
        return {
            "schema_version": 1,
            "tool": "compreg-analyze",
            "root": root,
            "passes": [
                {"name": name, "description": PASSES[name].DESCRIPTION}
                for name in sorted(PASSES)
            ],
            "files_audited": self.files,
            "skipped_dirs": [
                {"dir": d, "pass": p, "reason": r}
                for (d, p), r in sorted(self.skipped_dirs.items())
            ],
            "findings": self.findings,
            "exemptions": self.exemptions_used,
            "census": self.census_rows,
        }


def audit_files(files, root, report, passes=None):
    """Runs `passes` (default: all) over `files`."""
    passes = passes or sorted(PASSES)
    for path in sorted(files):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        rel = os.path.normpath(os.path.relpath(path, root)).replace(
            os.sep, "/")
        ctx = AuditFile(path, rel, text, report)
        report.files += 1
        for name in passes:
            dir_reason = _dir_exemption(rel, name)
            if dir_reason is not None:
                report.skipped_dirs[dir_reason] = EXEMPT_DIRS[dir_reason]
                continue
            PASSES[name].run(ctx)
        for ex in ctx.exemptions:
            if not ex.used:
                ctx.census("driver", {
                    "kind": "unused-exemption", "pass": ex.pass_name,
                    "line": ex.line, "reason": ex.reason,
                })


def _dir_exemption(rel, pass_name):
    for (d, p), _ in EXEMPT_DIRS.items():
        if p == pass_name and (rel == d or rel.startswith(d + "/")):
            return (d, p)
    return None


def collect_files(targets, root):
    files = []
    for t in targets:
        if os.path.isfile(t):
            files.append(t)
        elif os.path.isdir(t):
            for dirpath, _dirnames, names in os.walk(t):
                files.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(names)
                    if f.endswith((".h", ".cc", ".cpp", ".hpp"))
                )
        else:
            print(f"analyze: no such path: {t}", file=sys.stderr)
            sys.exit(64)
    return files


def print_report(report):
    for f in report.findings:
        fn = f" (in {f['function']})" if f["function"] else ""
        print(f"{f['file']}:{f['line']}: [{f['pass']}] {f['message']}{fn}")
    for (d, p), reason in sorted(report.skipped_dirs.items()):
        print(f"analyze: skipping {d}/ for pass `{p}` — {reason}")
    per_pass = {}
    for f in report.findings:
        per_pass[f["pass"]] = per_pass.get(f["pass"], 0) + 1
    ex_per_pass = {}
    for e in report.exemptions_used:
        ex_per_pass[e["pass"]] = ex_per_pass.get(e["pass"], 0) + 1
    print(f"analyze: {report.files} files, "
          f"{len(report.findings)} finding(s), "
          f"{len(report.exemptions_used)} exemption(s) honored")
    for name in sorted(PASSES):
        print(f"  {name:10s} findings {per_pass.get(name, 0):3d}  "
              f"exemptions {ex_per_pass.get(name, 0):3d}")


# Mutants that must be flagged in exactly these functions (one finding
# each), not merely somewhere: the schedpoint mutant also proves that
# constructors and destructors are skipped and that a function which
# announces its point stays silent.
MUTANT_FUNCTIONS = {"mutant_schedpoint.h": ["quiet_read"]}


def self_test(root):
    """Seeded-mutant corpus: each mutant must be flagged by exactly its
    pass (in exactly its MUTANT_FUNCTIONS, when listed) and use every
    exemption it carries; the real trees must then audit clean."""
    corpus = os.path.join(root, "tests", "analyze", "mutants")
    if not os.path.isdir(corpus):
        print(f"analyze --self-test: corpus not found: {corpus}",
              file=sys.stderr)
        return 64
    failures = []
    # `driver` is no pass, but its marker diagnostics get a mutant too.
    for name in sorted(PASSES) + ["driver"]:
        primary = f"mutant_{name}.h"
        if not os.path.isfile(os.path.join(corpus, primary)):
            failures.append(f"missing mutant for pass `{name}`: "
                            f"{os.path.join(corpus, primary)}")
            continue
        # mutant_<pass>_<variant>.h: extra shapes the same pass must flag.
        variants = sorted(f for f in os.listdir(corpus)
                          if f.startswith(f"mutant_{name}_")
                          and f.endswith(".h"))
        for base in [primary] + variants:
            report = Report()
            audit_files([os.path.join(corpus, base)], root, report)
            mine = [f for f in report.findings if f["pass"] == name]
            errors = [f"{base}: unexpected [{f['pass']}] finding at line "
                      f"{f['line']}: {f['message']}"
                      for f in report.findings if f["pass"] != name]
            if not mine:
                errors.append(f"{base}: pass `{name}` reported no finding")
            got = sorted(str(f["function"]) for f in mine)
            wanted = sorted(MUTANT_FUNCTIONS.get(base, got))
            if got != wanted:
                errors.append(f"{base}: pass `{name}` flagged functions "
                              f"{got}, expected exactly {wanted}")
            errors += [f"{base}: exemption at line {row['line']} unused"
                       for row in report.census_rows.get("driver", [])
                       if row["kind"] == "unused-exemption"]
            failures += errors
            if not errors:
                print(f"analyze --self-test: {base} flagged by "
                      f"`{name}` only ({len(mine)} finding(s)) ... OK")
    clean = Report()
    audit_files(
        collect_files([os.path.join(root, t) for t in DEFAULT_TREES], root),
        root, clean)
    if clean.findings:
        for f in clean.findings:
            failures.append(
                f"clean-tree sweep: {f['file']}:{f['line']}: "
                f"[{f['pass']}] {f['message']}")
    else:
        print(f"analyze --self-test: clean-tree sweep silent over "
              f"{clean.files} files ... OK")
    if failures:
        print("analyze --self-test FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print("analyze --self-test OK: every mutant flagged by exactly its "
          "pass; clean tree silent")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="analyze",
        description="multi-pass static auditor for the implementation trees")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--json", metavar="FILE", default=None,
                    help="write machine-readable AUDIT.json here")
    ap.add_argument("--self-test", action="store_true",
                    help="audit the seeded-mutant corpus and the clean tree")
    ap.add_argument("--list-passes", action="store_true")
    ap.add_argument("--pass", dest="only_pass", default=None,
                    choices=sorted(PASSES), help="run a single pass")
    ap.add_argument("paths", nargs="*",
                    help=f"trees/files to audit (default: {DEFAULT_TREES})")
    args = ap.parse_args(argv)

    if args.list_passes:
        for name in sorted(PASSES):
            print(f"{name}: {PASSES[name].DESCRIPTION}")
        return 0
    if args.self_test:
        return self_test(args.root)

    targets = args.paths or [os.path.join(args.root, t)
                             for t in DEFAULT_TREES]
    report = Report()
    passes = [args.only_pass] if args.only_pass else None
    audit_files(collect_files(targets, args.root), args.root, report, passes)
    print_report(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(os.path.abspath(args.root)), fh,
                      indent=1, sort_keys=False)
            fh.write("\n")
        print(f"analyze: wrote {args.json}")
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
