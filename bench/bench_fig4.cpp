// E6 — Figure 4 replays: the paper's two example executions (and the
// remaining two branches of Reader statement 8), reproduced step for
// step on the deterministic scheduler, with a printed narrative. Exits
// 1 if any scan returns other than the paper predicts.
#include <cinttypes>
#include <cstdio>

#include "lin/workload.h"

int main() {
  std::printf("E6: paper Figure 4 schedule replays (C=2, R=1; process 0 = "
              "reader, 1 = Writer 0, 2 = Writer 1)\n\n");
  int unexpected = 0;
  for (const compreg::lin::Fig4Execution& e :
       compreg::lin::fig4_executions()) {
    const compreg::lin::Fig4Replay out = compreg::lin::replay_fig4(e);
    const bool ok =
        out.scan[0].id == e.want_id0 && out.scan[1].id == e.want_id1;
    if (!ok) ++unexpected;
    std::printf("%s\n  %s\n  scan returned: component0=(val %" PRIu64
                ", write #%" PRIu64 ")  component1=(val %" PRIu64
                ", write #%" PRIu64 ")\n  result: %s\n\n",
                e.name, e.expectation, out.scan[0].val, out.scan[0].id,
                out.scan[1].val, out.scan[1].id,
                ok ? "as the paper predicts" : "UNEXPECTED");
  }
  return unexpected == 0 ? 0 : 1;
}
