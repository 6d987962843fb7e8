// Seeded mutant for tools/analyze --self-test: the driver MUST report
// the marker below as malformed. Its reason wraps onto a second comment
// line, so the first line never closes its parenthesis; such a marker
// is neither honoured nor allowed to vanish. The code under it breaks
// no pass's rule, so the driver diagnostic is the only finding.
//
// This header is never compiled into the build; it exists only as
// analyzer input.
#pragma once

namespace compreg::mutants {

// audit: exempt(schedpoint, a reason long enough that it wraps onto
// the next comment line)
inline int plain() { return 42; }

}  // namespace compreg::mutants
