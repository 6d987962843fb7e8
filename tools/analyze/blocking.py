"""blocking pass: calls that can block (or take unbounded time) on a
wait-free path.

A wait-free operation may not acquire a mutex, wait on a condition
variable, sleep, yield, or allocate on the hot path — any of those
hands progress to the scheduler or the allocator. This pass flags, in
every non-constructor function of the audited trees:

  * lock acquisition: std::lock_guard / unique_lock / scoped_lock /
    shared_lock construction, and explicit .lock()/.try_lock()/.unlock();
  * condition variables (wait/notify are blocking by definition);
  * sleeps and yields (sleep_for, sleep_until, usleep, nanosleep,
    this_thread::yield);
  * dynamic allocation: `new`, malloc/calloc/realloc, make_unique /
    make_shared (the general-purpose allocator takes locks).

Constructors and destructors are skipped: they run before the object is
shared (or after), so allocation and locking there cannot stall a
concurrent operation. Known limitation, stated rather than hidden:
container mutations (push_back, resize) are NOT flagged, because
flagging every element access would bury the signal; the allocation
check above catches the direct escape hatches. For the core the gap is
closed by test rather than by this pass: a CompositeRegister makes one
allocation, in its constructor, and its scans and updates write only
into buffers sized there (alloc_free_test counts zero allocations over
the first scan on every slot and the first update of every component,
within the Y0Record inline budgets). The one container a core scan
touches is the caller's own `out` vector, resized to C.

The mutex baseline is blocking BY DESIGN — it carries a file-level
`audit: exempt(blocking, ...)` saying exactly that, which keeps the
exemption visible in AUDIT.json instead of special-cased in the tool.
"""

import bisect
import re

NAME = "blocking"
DESCRIPTION = ("blocking/unbounded calls on wait-free paths: locks, "
               "condition variables, sleeps, yields, allocation")

_PATTERNS = (
    (re.compile(r"\b(?:std::)?(lock_guard|unique_lock|scoped_lock|"
                r"shared_lock)\s*[<({]"),
     "constructs a {0} (lock acquisition blocks)"),
    (re.compile(r"(?:\.|->)\s*(lock|try_lock|unlock)\s*\("),
     "calls .{0}() on a lock object"),
    (re.compile(r"\b(condition_variable(?:_any)?)\b"),
     "uses a {0} (waiting is blocking by definition)"),
    (re.compile(r"\b(sleep_for|sleep_until|usleep|nanosleep)\s*\("),
     "sleeps via {0}() — unbounded wall-clock stall"),
    (re.compile(r"\b(?:std::)?this_thread::(yield)\s*\("),
     "yields to the scheduler ({0}) — progress now depends on it"),
    (re.compile(r"\bnew\b(?!\s*\()"),
     "allocates with `new` — the allocator may take locks"),
    (re.compile(r"\b(make_unique|make_shared|malloc|calloc|realloc)\s*"
                r"[<(]"),
     "allocates via {0} — the allocator may take locks"),
)


def _line_starts(clean):
    starts = [0]
    for i, c in enumerate(clean):
        if c == "\n":
            starts.append(i + 1)
    return starts


def run(ctx):
    src = ctx.src
    clean = src.clean
    starts = _line_starts(clean)
    seen = set()
    for pat, msg in _PATTERNS:
        for m in pat.finditer(clean):
            lineno = bisect.bisect_right(starts, m.start())
            fn = src.enclosing_function(lineno)
            if fn is None:
                continue  # member declarations don't execute
            if src.is_ctor_or_dtor(fn):
                ctx.census(NAME, {"kind": "ctor-only", "line": lineno,
                                  "what": m.group(0).strip()})
                continue
            what = m.group(1) if m.groups() else "new"
            key = (lineno, what)
            if key in seen:
                continue
            seen.add(key)
            ctx.finding(NAME, lineno, msg.format(what))
