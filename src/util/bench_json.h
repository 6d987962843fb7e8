// BENCH_*.json rows: the one envelope every JSON-emitting bench and
// tool writes,
//
//   {"schema_version": 1, "bench": "<name>", "rows": [ {...}, ... ]}
//
// with one flat row object per line, so runs diff line by line.
// tools/check_bench_schema.py validates it; bump the version in
// bench_json.cpp in lockstep with the checker when a row key changes
// meaning.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace compreg {

class BenchRows {
 public:
  // `echo`, when set, also gets every row as it is added, one per line.
  explicit BenchRows(std::FILE* echo = nullptr) : echo_(echo) {}

  // Appends one row object, printf-formatted.
  void add(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  void add_text(std::string row);

  // Writes the envelope for `bench` to `path` and says so on stdout;
  // false, said on stderr, if `path` cannot be opened or a write to it
  // fails.
  bool write(const std::string& path, const char* bench) const;

 private:
  std::FILE* echo_;
  std::vector<std::string> rows_;
};

}  // namespace compreg
