// The one strict decimal parser. The whole string must be one unsigned
// decimal integer: digits only, so no sign, no space, no trailing junk,
// and no overflow. std::stoull alone would take "-1" (as 2^64-1),
// " 7" and "+7".
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>

namespace compreg {

// `text` as an integer in [lo, hi], or nullopt.
inline std::optional<std::uint64_t> parse_decimal(
    const char* text, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  if (*text < '0' || *text > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

}  // namespace compreg
