// Compilation anchor for the header-only register templates: ensures
// every header is self-contained and instantiates the cells once so
// template errors surface when the library builds, not in clients.
#include "registers/hazard_cell.h"
#include "registers/simpson.h"
#include "registers/tagged_cell.h"
#include "registers/word_register.h"

namespace compreg::registers {

template class WordRegister<std::uint8_t>;
template class SimpsonRegister<std::uint64_t>;
template class HazardCell<std::uint64_t>;
template class FullInfoCell<std::uint64_t, SimpsonRegister>;

}  // namespace compreg::registers
