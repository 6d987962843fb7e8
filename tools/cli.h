// The command-line contract every tool shares (verify_schedules,
// compreg_loadgen, compreg_server, and the `--replica` child mode of
// fleet_common.h): exit codes, usage errors, and the one strict parser
// for numeric flags. A bad value exits 64; it never runs as a silently
// defaulted 0.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <system_error>

#include "util/decimal.h"

namespace compreg::tools {

constexpr int kExitViolation = 1;
constexpr int kExitWatchdog = 2;
constexpr int kExitUsage = 64;

// Prints a usage error (printf-style, newline added) and exits 64.
[[noreturn]] __attribute__((format(printf, 1, 2))) inline void usage_error(
    const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(kExitUsage);
}

// Whether `path` can be opened for writing, checked at startup without
// leaving a file behind: an output path that cannot be written exits 64
// before the run, not after it with the output lost.
inline bool can_write(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  const bool ok = std::ofstream(path, std::ios::app).is_open();
  if (ok && !existed) std::filesystem::remove(path, ec);
  return ok;
}

// Parses a numeric flag's value with parse_decimal (util/decimal.h): the
// whole string must be a decimal integer in [lo, hi]. Anything else —
// empty, a sign, trailing junk, overflow, out of range — is a usage
// error (exit 64).
inline std::uint64_t parse_number(const char* flag, const char* text,
                                  std::uint64_t lo, std::uint64_t hi) {
  const std::optional<std::uint64_t> v = parse_decimal(text, lo, hi);
  if (!v) {
    usage_error("%s takes an integer in [%llu, %llu], got '%s'", flag,
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi), text);
  }
  return *v;
}

}  // namespace compreg::tools
