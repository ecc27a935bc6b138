// Metric table + StepMetricsLogger + derive_overlap contracts: the table's
// names are unique and strictly sorted and match the README's "Metrics"
// table row for row, write_jsonl emits one parseable object per step with
// keys in table order (non-finite gauges as null), the logger maps every
// CommStats/StepReport field to its dotted name, and the overlap split
// matches AsyncCommStats::overlap_won_seconds().
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "json_util.hpp"

namespace dkfac::obs {
namespace {

using testing::JsonValue;
using testing::parse_json;

std::string_view kind_name(MetricKind kind) {
  return kind == MetricKind::kCounter ? "counter" : "gauge";
}

const MetricDef& find_metric(std::string_view name) {
  for (const MetricDef& metric : metric_table()) {
    if (metric.name == name) return metric;
  }
  throw Error("no metric named " + std::string(name));
}

TEST(Registry, NamesAreUniqueAndStrictlySorted) {
  const auto table = metric_table();
  ASSERT_FALSE(table.empty());
  for (size_t i = 1; i < table.size(); ++i) {
    EXPECT_LT(table[i - 1].name, table[i].name)
        << "row " << i << " breaks strict name order";
  }
  for (const MetricDef& metric : table) {
    EXPECT_NE(metric.name, "step") << "reserved JSONL key";
    EXPECT_FALSE(metric.unit.empty()) << metric.name;
    EXPECT_FALSE(metric.description.empty()) << metric.name;
    EXPECT_NE(metric.value, nullptr) << metric.name;
  }
}

// The README's "Metrics" section lists one row per metric:
// | `name` | kind | unit | description |
TEST(Registry, ReadmeTableMatchesCodeTable) {
  std::ifstream readme(DKFAC_README_PATH);
  ASSERT_TRUE(readme.good()) << DKFAC_README_PATH;
  std::vector<std::string> documented;
  std::string line;
  bool in_section = false;
  while (std::getline(readme, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line == "### Metrics";
    } else if (in_section && line.rfind("| `", 0) == 0) {
      documented.push_back(line);
    }
  }
  std::vector<std::string> expected;
  for (const MetricDef& metric : metric_table()) {
    std::ostringstream row;
    row << "| `" << metric.name << "` | " << kind_name(metric.kind) << " | "
        << metric.unit << " | " << metric.description << " |";
    expected.push_back(row.str());
  }
  EXPECT_EQ(documented, expected) << [&] {
    std::string all = "README rows generated from the code table:\n";
    for (const std::string& row : expected) all += row + "\n";
    return all;
  }();
}

TEST(Registry, JsonlLineParsesWithSortedKeysAndNullNonFinite) {
  StepRecord record;
  record.sample.step = 42;
  record.arena.bytes_reserved = 9;
  record.sample.lr = 0.125;
  record.sample.loss = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream out;
  write_jsonl(out, record);
  const std::string line = out.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);

  const JsonValue root = parse_json(line);
  EXPECT_EQ(root.at("step").number(), 42.0);
  EXPECT_EQ(root.at("train.lr").number(), 0.125);
  EXPECT_EQ(root.at("arena.bytes_reserved").number(), 9.0);
  EXPECT_TRUE(root.at("train.loss").is_null());
  EXPECT_EQ(root.object().size(), metric_table().size() + 1);
  // Keys appear in table order, right after "step".
  size_t previous = line.find("\"step\":");
  EXPECT_EQ(previous, 1u);
  for (const MetricDef& metric : metric_table()) {
    const size_t at = line.find("\"" + std::string(metric.name) + "\":");
    ASSERT_NE(at, std::string::npos) << metric.name;
    EXPECT_GT(at, previous) << metric.name;
    previous = at;
  }
}

// ---- derive_overlap --------------------------------------------------------

TEST(DeriveOverlap, TimerPathMatchesOverlapWonCounter) {
  comm::AsyncCommStats async;
  async.comm_seconds = 2.0;
  async.wait_seconds = 0.5;
  const OverlapDerived d = derive_overlap(async);
  EXPECT_DOUBLE_EQ(d.hidden_seconds, async.overlap_won_seconds());
  EXPECT_DOUBLE_EQ(d.hidden_seconds, 1.5);
  EXPECT_DOUBLE_EQ(d.exposed_seconds, 0.5);

  // Fully exposed: waited longer than the collectives ran.
  async.wait_seconds = 3.0;
  const OverlapDerived e = derive_overlap(async);
  EXPECT_DOUBLE_EQ(e.hidden_seconds, 0.0);
  EXPECT_DOUBLE_EQ(e.exposed_seconds, 2.0);
}

// ---- StepMetricsLogger -----------------------------------------------------

std::vector<JsonValue> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<JsonValue> records;
  std::string line;
  while (std::getline(in, line)) records.push_back(parse_json(line));
  return records;
}

TEST(StepMetricsLogger, MapsLegacyStatsToDottedNamesAndWritesJsonl) {
  const std::string path = ::testing::TempDir() + "dkfac_metrics_test.jsonl";
  {
    StepMetricsLogger logger(path);
    ASSERT_TRUE(logger.writing());

    StepSample sample;
    sample.step = 1;
    sample.epoch = 0;
    sample.loss = 2.25;
    sample.accuracy = 0.5;
    sample.lr = 0.05;
    sample.step_seconds = 0.25;

    comm::CommStats stats;
    stats.allreduce_calls = 3;
    stats.allreduce_bytes = 1024;
    stats.wire_sent_bytes = 555;
    stats.async.comm_seconds = 0.2;
    stats.async.wait_seconds = 0.05;

    kfac::KfacPreconditioner::StepReport report;
    report.factors_updated = 4;
    report.decompositions_updated = 2;
    report.decomp_intra_tasks = 1;
    report.decomp_inter_tasks = 1;
    report.factor_seconds = 0.01;

    comm::ArenaStats arena;
    arena.bytes_reserved = 8192;
    arena.steady_state_allocs = 0;

    logger.record(sample, stats, &report, arena);
    sample.step = 2;
    sample.loss = 2.0;
    logger.record(sample, stats, &report, arena);
  }

  // The file holds one parseable object per record() call.
  const std::vector<JsonValue> records = read_jsonl(path);
  ASSERT_EQ(records.size(), 2u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].at("step").number(), static_cast<double>(i + 1));
    EXPECT_TRUE(records[i].has("train.loss"));
    EXPECT_TRUE(records[i].has("comm.overlap.hidden_seconds"));
    EXPECT_TRUE(records[i].has("kfac.factor_seconds"));
  }

  // The last record reflects the stat structs under the documented names.
  const JsonValue& last = records.back();
  EXPECT_EQ(last.at("comm.allreduce.calls").number(), 3.0);
  EXPECT_EQ(last.at("comm.allreduce.bytes").number(), 1024.0);
  EXPECT_EQ(last.at("comm.wire.sent_bytes").number(), 555.0);
  // factor/decomp update counters tick once per step that updated, not by
  // the per-step factor count.
  EXPECT_EQ(last.at("kfac.factor_updates").number(), 2.0);
  EXPECT_EQ(last.at("kfac.decomp_updates").number(), 2.0);
  EXPECT_EQ(last.at("arena.bytes_reserved").number(), 8192.0);
  EXPECT_EQ(last.at("train.loss").number(), 2.0);
  EXPECT_EQ(last.at("comm.async.comm_seconds").number(), 0.2);
  EXPECT_DOUBLE_EQ(last.at("comm.overlap.hidden_seconds").number(), 0.15);
  EXPECT_DOUBLE_EQ(last.at("comm.overlap.exposed_seconds").number(), 0.05);
}

TEST(StepMetricsLogger, EmptyPathDisablesWritingButKeepsRegistry) {
  StepMetricsLogger logger("");
  EXPECT_FALSE(logger.writing());
  StepSample sample;
  sample.loss = 1.0;
  logger.record(sample, comm::CommStats{}, nullptr, comm::ArenaStats{});
  // Nothing is written, but the table still reads the sample.
  StepRecord record;
  record.sample = sample;
  EXPECT_EQ(find_metric("train.loss").value(record), 1.0);
}

TEST(StepMetricsLogger, UnwritablePathThrows) {
  EXPECT_THROW(StepMetricsLogger("/nonexistent-dir.v9/m.jsonl"), Error);
}

}  // namespace
}  // namespace dkfac::obs
