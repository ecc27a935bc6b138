// The per-step metric schema and its JSONL writer. One static,
// name-sorted table (metrics.cpp) holds every metric as
// {name, kind, unit, description, value(StepRecord)}; the README's
// "Metrics" table is checked against it row for row. A StepRecord bundles
// the stat structs the trainer already snapshots each step (StepSample,
// comm::CommStats, the K-FAC StepReport, comm::ArenaStats), so adding a
// metric is one table row and nothing else.
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "comm/arena.hpp"
#include "comm/communicator.hpp"
#include "comm/net/faultnet.hpp"
#include "core/preconditioner.hpp"

namespace dkfac::obs {

/// Per-step scalars the trainer hands the logger (everything not already
/// carried by a stats struct).
struct StepSample {
  uint64_t step = 0;   ///< global step index (monotonic across epochs)
  uint64_t epoch = 0;
  double loss = 0.0;
  double accuracy = 0.0;      ///< running train accuracy this epoch
  double lr = 0.0;
  double step_seconds = 0.0;
  double data_seconds = 0.0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double grad_comm_seconds = 0.0;  ///< synchronous grad-comm wall time
  double apply_seconds = 0.0;      ///< optimizer + K-FAC apply
  /// Elastic-training counters (cumulative over the run): group
  /// re-formations survived so far, and K-FAC factor updates shed as
  /// straggler slack. Zero outside elastic runs.
  uint64_t elastic_reformations = 0;
  uint64_t elastic_skipped_factor_steps = 0;
  /// Elastic scale-up: ranks observed joining the group across this
  /// process's re-formations, and whether this process is a respawned
  /// replacement (0/1).
  uint64_t elastic_joins = 0;
  uint64_t elastic_respawns = 0;
};

/// K-FAC work summed over the steps recorded so far (StepReport is per
/// step; the metrics are running totals).
struct KfacTotals {
  uint64_t factor_updates = 0;  ///< steps that refreshed the factors
  uint64_t decomp_updates = 0;  ///< steps that refreshed decompositions
  uint64_t decomp_intra_tasks = 0;
  uint64_t decomp_inter_tasks = 0;
};

/// Everything one step's metrics are read from.
struct StepRecord {
  StepSample sample;
  comm::CommStats comm;
  /// This step's K-FAC report; null when K-FAC is off.
  const kfac::KfacPreconditioner::StepReport* report = nullptr;
  comm::ArenaStats arena;  ///< summed over the comm-path arenas
  KfacTotals kfac;
  comm::net::faultnet::InjectCounts faults;  ///< zero without a fault plan
};

enum class MetricKind {
  kCounter,  ///< cumulative, written as an integer
  kGauge,    ///< this step's value, written as %.9g (null if non-finite)
};

struct MetricDef {
  std::string_view name;  ///< stable dotted name, the JSONL key
  MetricKind kind;
  std::string_view unit;
  std::string_view description;
  /// Counters return integers, exact as doubles below 2^53.
  double (*value)(const StepRecord&);
};

/// The metric table, strictly sorted by name.
std::span<const MetricDef> metric_table();

/// One JSON object on a single line: {"step":N,"a.b":1,...} with every
/// table metric in table (sorted) order.
void write_jsonl(std::ostream& out, const StepRecord& record);

/// Communication overlap split: hidden = collective time the main thread
/// never blocked for; exposed = time it did.
struct OverlapDerived {
  double hidden_seconds = 0.0;
  double exposed_seconds = 0.0;
};

/// Splits this rank's collective time by its own AsyncCommStats timers:
/// hidden is AsyncCommStats::overlap_won_seconds(), hidden + exposed is
/// comm_seconds.
OverlapDerived derive_overlap(const comm::AsyncCommStats& async);

/// Writes `train_cli --metrics <path>`: one JSONL line per record() call.
class StepMetricsLogger {
 public:
  /// Opens `path` for truncating write; throws dkfac::Error on failure.
  /// An empty path constructs a disabled logger that writes nothing.
  explicit StepMetricsLogger(const std::string& path);

  /// Folds this step's report into the running K-FAC totals and appends
  /// one JSONL line. `report` may be null (K-FAC off); `arena` is the
  /// summed comm-path arena stats.
  void record(const StepSample& sample, const comm::CommStats& comm,
              const kfac::KfacPreconditioner::StepReport* report,
              const comm::ArenaStats& arena);

  bool writing() const { return out_.is_open(); }

 private:
  std::ofstream out_;
  /// A failed JSONL write has been reported (warn once, not per step —
  /// metrics are observability, so a full disk degrades to a warning
  /// instead of killing the training run).
  bool write_failure_logged_ = false;
  KfacTotals kfac_totals_;
};

}  // namespace dkfac::obs
