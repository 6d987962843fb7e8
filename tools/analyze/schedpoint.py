"""schedpoint pass: synchronization ops must announce schedule points.

The simulator (sched/sim_scheduler.h) and every analysis built on it —
DPOR race reversal, dependence-aware sleep sets, class-orbit covering,
the conformance analyzer — see an execution ONLY through the labeled
sched::point()/sched::observe() calls that implementations interleave
with their shared-memory operations. A raw std::atomic op or mutex
acquisition with no schedule point in the same function is invisible to
the scheduler: schedules cannot preempt around it, DPOR cannot reverse
races through it, and a certificate produced over such code silently
under-approximates the schedule space.

This pass enforces the discipline over the trees whose code runs under
the simulator (src/registers, src/baselines, src/net; the driver's
EXEMPT_DIRS skips every other tree, src/net/real included, with its
reason): every function whose body performs a synchronization operation
(atomic load/store/RMW, mutex lock/unlock, lock_guard/unique_lock/
scoped_lock construction) must also contain at least one labeled
schedule-point call (sched::point / sched::observe) or a
ScopedAccessObserver. Constructors and destructors are skipped: they
run before the object is shared (or after the last reader detaches),
outside the scheduled region.
"""

import re

NAME = "schedpoint"
DESCRIPTION = ("schedule-point discipline: a function with a sync op in "
               "the simulator-scheduled trees announces a labeled "
               "sched::point/observe")

_SYNC_OP = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"lock|unlock|try_lock)\s*\("
    r"|std::(lock_guard|unique_lock|scoped_lock)\b"
)

_SCHED_POINT = re.compile(
    r"\bsched::(point|observe)\s*\(|\bScopedAccessObserver\b"
)


def run(ctx):
    src = ctx.src
    for lineno, line in enumerate(src.clean_lines, 1):
        m = _SYNC_OP.search(line)
        if not m:
            continue
        op = m.group(0).strip()
        fn = src.enclosing_function(lineno)
        if fn is None:
            ctx.finding(NAME, lineno,
                        f"synchronization op `{op}` outside any recognized "
                        "function scope")
        elif (not src.is_ctor_or_dtor(fn)
              and not _SCHED_POINT.search(src.function_body(fn))):
            ctx.finding(NAME, lineno,
                        f"`{fn.name or fn.header[:40]}` performs `{op}` "
                        "with no sched::point/sched::observe in scope — "
                        "invisible to the scheduler; add a labeled point "
                        "or audit: exempt(schedpoint, <reason>)")
