// The LEDGER.jsonl writer: a bench rerun replaces its own lines in place and
// leaves every other bench's lines byte-identical, and every timing carries
// norm = value / the run's yardstick at the ledger's print precision.
#include "ledger.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json_util.hpp"

namespace dkfac::bench {
namespace {

using obs::testing::JsonValue;
using obs::testing::parse_json;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> lines_of(const std::vector<std::string>& lines,
                                  const std::string& bench) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    if (parse_json(line).at("bench").str() == bench) out.push_back(line);
  }
  return out;
}

std::string printed(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", x);
  return buf;
}

TEST(Ledger, RerunReplacesOnlyItsOwnLines) {
  const std::string path = ::testing::TempDir() + "ledger_test.jsonl";
  std::remove(path.c_str());

  Ledger a("bench_a", 2.0);
  a.add("gemm/t1", "ms", 3.0);
  a.add("gemm/t1", "gflops", 10.0);
  a.add("flop_model", "gemm", "2n^3");
  a.write(path);
  Ledger b("bench_b", 3.14159);
  b.add("batch/t2", "serial_ms", 7.0);
  b.add("batch/t2", "batched_ms", 1.234567);
  b.add("batch/t2", "speedup", 5.67);
  b.write(path);
  const std::vector<std::string> before = read_lines(path);
  const std::vector<std::string> b_before = lines_of(before, "bench_b");
  ASSERT_EQ(b_before.size(), 4u + 3u);  // machine rows + its own

  Ledger rerun("bench_a", 2.5);
  rerun.add("gemm/t1", "ms", 4.0);
  rerun.write(path);
  const std::vector<std::string> after = read_lines(path);

  EXPECT_EQ(lines_of(after, "bench_b"), b_before);
  const std::vector<std::string> a_after = lines_of(after, "bench_a");
  ASSERT_EQ(a_after.size(), 4u + 1u);
  EXPECT_EQ(after.size(), a_after.size() + b_before.size());
  // In place: the rerun's lines stand where bench_a's did, ahead of B.
  EXPECT_EQ(std::vector<std::string>(after.begin(), after.begin() + 5), a_after);
  const JsonValue last = parse_json(a_after.back());
  EXPECT_EQ(last.at("config").str(), "gemm/t1");
  EXPECT_EQ(last.at("value").number(), 4.0);

  // Every timing row carries norm = value / yardstick_ms of its bench.
  std::map<std::string, double> yardstick;
  for (const std::string& line : after) {
    const JsonValue row = parse_json(line);
    EXPECT_EQ(row.at("schema").number(), 1.0);
    if (row.at("config").str() == "machine" &&
        row.at("metric").str() == "yardstick_ms") {
      yardstick[row.at("bench").str()] = row.at("value").number();
    }
  }
  ASSERT_EQ(yardstick.size(), 2u);
  int timings = 0;
  for (const std::string& line : after) {
    const JsonValue row = parse_json(line);
    const std::string metric = row.at("metric").str();
    const bool timing = metric == "ms" || metric.ends_with("_ms");
    EXPECT_EQ(row.has("norm"), timing) << line;
    if (!timing) continue;
    ++timings;
    const double y = yardstick.at(row.at("bench").str());
    EXPECT_EQ(printed(row.at("norm").number()),
              printed(row.at("value").number() / y))
        << line;
  }
  EXPECT_EQ(timings, 5);  // two yardstick rows, gemm ms, serial/batched ms
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dkfac::bench
