#include "util/bench_json.h"

#include <cstdarg>

namespace compreg {
namespace {

constexpr int kBenchSchemaVersion = 1;

}  // namespace

void BenchRows::add(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  add_text(buf);
}

void BenchRows::add_text(std::string row) {
  if (echo_ != nullptr) {
    std::fprintf(echo_, "%s\n", row.c_str());
    std::fflush(echo_);
  }
  rows_.push_back(std::move(row));
}

bool BenchRows::write(const std::string& path, const char* bench) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n\"schema_version\": %d,\n\"bench\": \"%s\",\n",
               kBenchSchemaVersion, bench);
  std::fprintf(f, "\"rows\": [\n");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                 i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "]\n}\n");
  // A write that failed (a full disk, say) shows in the stream's error
  // flag or when fclose flushes the last buffer.
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %zu rows to %s\n", rows_.size(), path.c_str());
  return true;
}

}  // namespace compreg
