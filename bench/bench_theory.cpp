// E11 — Costs of the theoretical register chain, in primitive
// (safe-bit / regular-register) operations: the units the paper's space
// citation [26],[27] and Lamport's constructions are priced in.
//
// Claims checked:
//  * SafeMValued: log2(M) safe-bit ops per access (binary coding);
//  * RegularMValued: <= v+1 bit-writes to write v, <= v+1 bit-reads to
//    read value v (unary coding, scan-from-zero);
//  * AtomicSwsr: exactly 1 regular-register op per operation;
//  * TheoryCell: write = R SWSR writes; read = R SWSR reads +
//    (R-1) SWSR writes — readers must write.
#include <cinttypes>
#include <cstdio>

#include "theory/chain.h"

namespace {

using namespace compreg::theory;  // NOLINT: bench-local brevity

TheoryOps delta_since(const TheoryOps& before) {
  const TheoryOps now = theory_ops();
  return TheoryOps{now.safe_bit_reads - before.safe_bit_reads,
                   now.safe_bit_writes - before.safe_bit_writes,
                   now.regular_reads - before.regular_reads,
                   now.regular_writes - before.regular_writes};
}

}  // namespace

int main() {
  std::printf("E11: theoretical chain costs (primitive ops per "
              "operation)\n\n");

  std::printf("-- SafeMValued (binary coding): ceil(log2 M) safe-bit ops "
              "--\n");
  std::printf("%6s %7s %12s %12s\n", "M", "width", "write ops", "read ops");
  for (int m : {2, 4, 8, 16, 64, 256}) {
    SafeMValued reg(m, 0);
    TheoryOps before = theory_ops();
    reg.write(m - 1);
    const TheoryOps w = delta_since(before);
    before = theory_ops();
    (void)reg.read();
    const TheoryOps r = delta_since(before);
    std::printf("%6d %7d %12" PRIu64 " %12" PRIu64 "\n", m, reg.width(),
                w.safe_bit_writes, r.safe_bit_reads);
  }

  std::printf("\n-- RegularMValued (unary coding): reads pay v+1 bit reads "
              "(scan to the first set bit); writes touch <= v+1 bits but "
              "the regular-bit layer skips unchanged bits, so few safe "
              "writes actually land --\n");
  std::printf("%6s %6s %12s %12s\n", "M", "v", "write ops", "read ops");
  for (int m : {8, 32}) {
    for (int v : {0, 1, m / 2, m - 1}) {
      RegularMValued reg(m, m - 1);  // start high so writes clear bits
      TheoryOps before = theory_ops();
      reg.write(v);
      const TheoryOps w = delta_since(before);
      before = theory_ops();
      (void)reg.read();
      const TheoryOps r = delta_since(before);
      std::printf("%6d %6d %12" PRIu64 " %12" PRIu64 "\n", m, v,
                  w.safe_bit_writes + w.safe_bit_reads,
                  r.safe_bit_reads);
    }
  }

  std::printf("\n-- AtomicSwsr: 1 regular op per operation --\n");
  {
    AtomicSwsr<int> reg(0);
    TheoryOps before = theory_ops();
    reg.write(1);
    const TheoryOps w = delta_since(before);
    before = theory_ops();
    (void)reg.read();
    const TheoryOps r = delta_since(before);
    std::printf("write: %" PRIu64 " regular writes; read: %" PRIu64
                " regular reads\n",
                w.regular_writes, r.regular_reads);
  }

  std::printf("\n-- TheoryCell (full-information MRSW): readers must "
              "write --\n");
  std::printf("%4s %14s %14s %14s\n", "R", "write SWSR ops",
              "read SWSR reads", "read SWSR writes");
  for (int readers : {1, 2, 4, 8}) {
    TheoryCell<int> reg(readers, 0);
    TheoryOps before = theory_ops();
    reg.write(7);
    const TheoryOps w = delta_since(before);
    before = theory_ops();
    (void)reg.read(0);
    const TheoryOps r = delta_since(before);
    std::printf("%4d %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n", readers,
                w.regular_writes, r.regular_reads, r.regular_writes);
  }
  std::printf("\n(read = R reads + R-1 report writes: the reader-to-reader "
              "communication that prevents new-old inversions — invisible "
              "readers cannot implement an atomic MRSW register.)\n");
  return 0;
}
