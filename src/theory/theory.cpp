#include "theory/chain.h"

namespace compreg::theory {

TheoryOps& theory_ops() {
  thread_local TheoryOps ops;
  return ops;
}

// Compilation anchors.
template class SimRegularRegister<int>;
template class AtomicSwsr<int>;

}  // namespace compreg::theory

template class compreg::registers::FullInfoCell<int,
                                                compreg::theory::AtomicSwsr>;
