// The JSON report writer the benches share (BENCH_*.json).

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench_common.hpp"

namespace topk::bench {
namespace {

TEST(JsonReport, EscapesStringsAndNullsNonFiniteNumbers) {
  JsonRow row;
  row.add("s", "a\"b\\c\nd")
      .add("flag", true)
      .add("n", std::size_t{16777216})
      .add("x", 0.5)
      .add("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(row.str(),
            R"({"s": "a\"b\\c\u000ad", "flag": true, "n": 16777216, )"
            R"("x": 0.5, "inf": null})");
}

TEST(JsonReport, WritesMetaThenArraysInFirstRowOrder) {
  JsonReport report;
  report.meta().add("bench", "t");
  report.add_row("results", JsonRow().add("i", 0));
  report.add_row("sharded", JsonRow().add("i", 1));
  report.add_row("results", JsonRow().add("i", 2));
  const std::string path = testing::TempDir() + "bench_common_test.json";
  ASSERT_TRUE(report.write(path));
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(got.str(),
            "{\n  \"meta\": {\"bench\": \"t\"},\n"
            "  \"results\": [\n    {\"i\": 0},\n    {\"i\": 2}\n  ],\n"
            "  \"sharded\": [\n    {\"i\": 1}\n  ]\n}\n");
  EXPECT_FALSE(report.write(testing::TempDir() + "no-such-dir/report.json"));
}

}  // namespace
}  // namespace topk::bench
