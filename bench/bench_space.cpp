// E3 — Space complexity (paper Section 4.1).
//
// Claim: with Y[0] holding 4R + CB + B + 2 bits, Y[1..C-1] recursing
// with R+1 readers, and the cited base constructions costing
// S1(B,R) = R^2 + B*R SWSR bits for R > 1 ([26]) and S1(B,1) = B ([27]),
// the total is S(C,B,1,R) = O(R^2 + CBR) + S(C-1,B,1,R+1)
//                        = O(C*R^2 + C^2*B*R + C^3*B).
// We enumerate the construction's actual register inventory with the
// space accountant, fold the cited per-register model over it, and
// compare the growth against the closed form.
#include <array>
#include <cinttypes>
#include <cstdio>

#include "core/composite_register.h"
#include "theory/chain.h"
#include "util/space_accounting.h"

namespace {

using compreg::ScopedSpaceAccounting;
using compreg::SpaceAccountant;
using compreg::core::CompositeRegister;

struct Inventory {
  std::uint64_t registers;
  std::uint64_t payload_bits;
  std::uint64_t model_swsr_bits;
};

template <typename V>
Inventory inventory(int c, int r) {
  SpaceAccountant acct;
  {
    ScopedSpaceAccounting scope(acct);
    CompositeRegister<V> reg(c, r, V{});
  }
  return Inventory{acct.total_registers(), acct.total_bits(),
                   acct.model_swsr_bits()};
}

std::uint64_t closed_form(std::uint64_t c, std::uint64_t b, std::uint64_t r) {
  return c * r * r + c * c * b * r + c * c * c * b;
}

template <typename V>
void table(const char* name, std::uint64_t b) {
  std::printf("-- B = %" PRIu64 " (%s) --\n", b, name);
  std::printf("%3s %3s %10s %14s %16s %18s %8s\n", "C", "R", "registers",
              "payload bits", "model SWSR bits", "closed form CR^2+",
              "ratio");
  for (int c : {1, 2, 3, 4, 6, 8, 10}) {
    for (int r : {1, 2, 4, 8}) {
      const Inventory inv = inventory<V>(c, r);
      const std::uint64_t cf =
          closed_form(static_cast<std::uint64_t>(c), b,
                      static_cast<std::uint64_t>(r));
      std::printf("%3d %3d %10" PRIu64 " %14" PRIu64 " %16" PRIu64
                  " %18" PRIu64 " %8.3f\n",
                  c, r, inv.registers, inv.payload_bits, inv.model_swsr_bits,
                  cf, static_cast<double>(inv.model_swsr_bits) /
                          static_cast<double>(cf));
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("E3: Space complexity — register inventory vs the paper's "
              "S(C,B,1,R) = O(C R^2 + C^2 B R + C^3 B)\n");
  std::printf("(model SWSR bits: each MRSW register of width W with R "
              "readers costs R^2 + W*R SWSR bits [26], or W bits when "
              "R = 1 [27]; auxiliary id fields excluded)\n\n");
  table<std::uint64_t>("u64 components", 64);
  table<std::array<std::uint8_t, 64>>("512-bit components", 512);
  std::printf("The ratio column is bounded and tends to a constant as C "
              "grows: the measured inventory tracks the closed form's "
              "shape.\n\n");

  std::printf("-- full-stack cross-check: SWSR registers actually "
              "instantiated by the theory-chain backend --\n");
  std::printf("(each MRSW register of R readers becomes R + R^2 SWSR "
              "registers in the full-information construction: R writer "
              "copies plus the RxR reader-report matrix)\n");
  std::printf("%3s %3s %14s %18s\n", "C", "R", "MRSW registers",
              "SWSR registers");
  for (int c : {1, 2, 3, 4}) {
    for (int r : {1, 2, 4}) {
      SpaceAccountant acct;
      {
        ScopedSpaceAccounting scope(acct);
        compreg::core::CompositeRegister<std::uint64_t,
                                         compreg::theory::TheoryCell,
                                         compreg::theory::TheoryCell>
            reg(c, r, 0);
      }
      std::uint64_t mrsw = 0, swsr = 0;
      for (const auto& roll : acct.rollup()) {
        if (roll.label == "swsr_regular") {
          swsr = roll.registers;
        } else {
          mrsw += roll.registers;
        }
      }
      std::printf("%3d %3d %14" PRIu64 " %18" PRIu64 "\n", c, r, mrsw, swsr);
    }
  }
  return 0;
}
