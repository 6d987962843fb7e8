#include "util/bench_json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace compreg {
namespace {

TEST(BenchRowsTest, WritesTheEnvelope) {
  const std::string path =
      ::testing::TempDir() + "bench_rows_test_envelope.json";
  BenchRows rows;
  rows.add("{\"experiment\": \"%s\", \"n\": %d}", "t", 1);
  ASSERT_TRUE(rows.write(path, "unit"));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(),
            "{\n\"schema_version\": 1,\n\"bench\": \"unit\",\n\"rows\": [\n"
            "  {\"experiment\": \"t\", \"n\": 1}\n]\n}\n");
  std::remove(path.c_str());
}

TEST(BenchRowsTest, UnopenablePathIsAFailure) {
  BenchRows rows;
  rows.add("{\"experiment\": \"t\"}");
  EXPECT_FALSE(rows.write("/nonexistent_dir/rows.json", "unit"));
}

// /dev/full opens, but every write to it fails with ENOSPC: the failure
// shows only when the buffered rows are flushed.
TEST(BenchRowsTest, FailedWriteIsAFailure) {
  BenchRows rows;
  rows.add("{\"experiment\": \"t\"}");
  EXPECT_FALSE(rows.write("/dev/full", "unit"));
}

}  // namespace
}  // namespace compreg
