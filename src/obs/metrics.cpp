#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace dkfac::obs {
namespace {

using R = StepRecord;
constexpr MetricKind kCounter = MetricKind::kCounter;
constexpr MetricKind kGauge = MetricKind::kGauge;

double u64(uint64_t v) { return static_cast<double>(v); }

const kfac::KfacPreconditioner::StepReport& report_or_zero(const R& r) {
  static const kfac::KfacPreconditioner::StepReport kNone;
  return r.report != nullptr ? *r.report : kNone;
}

// Sorted by name: the JSONL key order, and the README table's row order.
constexpr MetricDef kMetrics[] = {
    {"arena.bytes_reserved", kCounter, "B",
     "Capacity of every live comm-path arena block (K-FAC, executor, fusion)",
     [](const R& r) { return u64(r.arena.bytes_reserved); }},
    {"arena.steady_allocs", kCounter, "allocs",
     "Comm-path arena heap allocations after warm-up; 0 when zero-copy holds",
     [](const R& r) { return u64(r.arena.steady_state_allocs); }},
    {"comm.allgather.bytes", kCounter, "B",
     "Bytes this rank sent into allgathers",
     [](const R& r) { return u64(r.comm.allgather_bytes); }},
    {"comm.allgather.calls", kCounter, "calls", "Allgathers this rank joined",
     [](const R& r) { return u64(r.comm.allgather_calls); }},
    {"comm.allreduce.bytes", kCounter, "B",
     "Bytes of this rank's allreduce buffers",
     [](const R& r) { return u64(r.comm.allreduce_bytes); }},
    {"comm.allreduce.calls", kCounter, "calls", "Allreduces this rank joined",
     [](const R& r) { return u64(r.comm.allreduce_calls); }},
    {"comm.async.batches", kCounter, "batches",
     "Fused collectives the async executor ran",
     [](const R& r) { return u64(r.comm.async.batches); }},
    {"comm.async.comm_seconds", kGauge, "s",
     "Async executor time inside collectives, summed over the run",
     [](const R& r) { return r.comm.async.comm_seconds; }},
    {"comm.async.submitted", kCounter, "tensors",
     "Tensors submitted to the async executor",
     [](const R& r) { return u64(r.comm.async.submitted); }},
    {"comm.async.wait_seconds", kGauge, "s",
     "Main-thread time blocked waiting for the async executor, summed over "
     "the run",
     [](const R& r) { return r.comm.async.wait_seconds; }},
    {"comm.broadcast.bytes", kCounter, "B",
     "Bytes this rank broadcast as root",
     [](const R& r) { return u64(r.comm.broadcast_bytes); }},
    {"comm.broadcast.calls", kCounter, "calls", "Broadcasts this rank joined",
     [](const R& r) { return u64(r.comm.broadcast_calls); }},
    {"comm.grad.seconds", kGauge, "s",
     "Gradient synchronisation wall time this step",
     [](const R& r) { return r.sample.grad_comm_seconds; }},
    {"comm.overlap.exposed_seconds", kGauge, "s",
     "Collective time the main thread blocked for: comm_seconds - "
     "hidden_seconds",
     [](const R& r) { return derive_overlap(r.comm.async).exposed_seconds; }},
    {"comm.overlap.hidden_seconds", kGauge, "s",
     "Collective time hidden behind compute: max(0, comm_seconds - "
     "wait_seconds)",
     [](const R& r) { return derive_overlap(r.comm.async).hidden_seconds; }},
    {"comm.wire.recv_bytes", kCounter, "B",
     "Bytes received on the wire, frame headers included (socket backend)",
     [](const R& r) { return u64(r.comm.wire_recv_bytes); }},
    {"comm.wire.sent_bytes", kCounter, "B",
     "Bytes sent on the wire, frame headers included (socket backend)",
     [](const R& r) { return u64(r.comm.wire_sent_bytes); }},
    {"data.load_seconds", kGauge, "s", "Batch load time this step",
     [](const R& r) { return r.sample.data_seconds; }},
    {"decomp.dense_bytes", kCounter, "B",
     "Bytes this rank's decomposition sends would take as dense FP32",
     [](const R& r) { return u64(r.comm.decomp_dense_bytes); }},
    {"decomp.packed_bytes", kCounter, "B",
     "Bytes this rank's decomposition sends took after packing and encoding",
     [](const R& r) { return u64(r.comm.decomp_packed_bytes); }},
    {"elastic.joins", kCounter, "ranks",
     "Ranks seen joining the group across re-formations",
     [](const R& r) { return u64(r.sample.elastic_joins); }},
    {"elastic.reformations", kCounter, "reformations",
     "Elastic group re-formations survived",
     [](const R& r) { return u64(r.sample.elastic_reformations); }},
    {"elastic.respawns", kCounter, "processes",
     "1 if this process is a respawned replacement rank",
     [](const R& r) { return u64(r.sample.elastic_respawns); }},
    {"elastic.skipped_factor_steps", kCounter, "steps",
     "K-FAC factor updates shed as straggler slack",
     [](const R& r) { return u64(r.sample.elastic_skipped_factor_steps); }},
    {"factor.dense_bytes", kCounter, "B",
     "Bytes the factor allreduces would ship as dense FP32 (analytic)",
     [](const R& r) { return u64(r.comm.factor_dense_bytes); }},
    {"factor.encoded_bytes", kCounter, "B",
     "Factor bytes handed to the allreduce after the precision codec",
     [](const R& r) { return u64(r.comm.factor_encoded_bytes); }},
    {"factor.packed_bytes", kCounter, "B",
     "Factor bytes after upper-triangle packing",
     [](const R& r) { return u64(r.comm.factor_packed_bytes); }},
    {"faultnet.injected.aborts", kCounter, "faults",
     "Injected process aborts",
     [](const R& r) { return u64(r.faults.aborts); }},
    {"faultnet.injected.bitflips", kCounter, "faults",
     "Injected payload bit-flips",
     [](const R& r) { return u64(r.faults.bitflips); }},
    {"faultnet.injected.refused", kCounter, "faults",
     "Injected connection refusals",
     [](const R& r) { return u64(r.faults.refused); }},
    {"faultnet.injected.resets", kCounter, "faults",
     "Injected connection resets",
     [](const R& r) { return u64(r.faults.resets); }},
    {"faultnet.injected.short_writes", kCounter, "faults",
     "Injected short writes",
     [](const R& r) { return u64(r.faults.short_writes); }},
    {"faultnet.injected.stalls", kCounter, "faults", "Injected send stalls",
     [](const R& r) { return u64(r.faults.stalls); }},
    {"faultnet.injected.total", kCounter, "faults",
     "Injected faults of every kind",
     [](const R& r) { return u64(r.faults.total); }},
    {"kfac.decomp_inter_tasks", kCounter, "factors",
     "Owned factors decomposed concurrently under serial kernels",
     [](const R& r) { return u64(r.kfac.decomp_inter_tasks); }},
    {"kfac.decomp_intra_tasks", kCounter, "factors",
     "Owned factors decomposed one at a time with parallel kernels",
     [](const R& r) { return u64(r.kfac.decomp_intra_tasks); }},
    {"kfac.decomp_updates", kCounter, "steps",
     "Steps that refreshed the decompositions",
     [](const R& r) { return u64(r.kfac.decomp_updates); }},
    {"kfac.decomposition_seconds", kGauge, "s",
     "K-FAC decomposition time this step",
     [](const R& r) { return report_or_zero(r).decomposition_seconds; }},
    {"kfac.factor_seconds", kGauge, "s", "K-FAC factor update time this step",
     [](const R& r) { return report_or_zero(r).factor_seconds; }},
    {"kfac.factor_updates", kCounter, "steps",
     "Steps that refreshed the factors",
     [](const R& r) { return u64(r.kfac.factor_updates); }},
    {"kfac.precondition_seconds", kGauge, "s",
     "K-FAC preconditioning time this step",
     [](const R& r) { return report_or_zero(r).precondition_seconds; }},
    {"train.accuracy", kGauge, "ratio", "Running train accuracy this epoch",
     [](const R& r) { return r.sample.accuracy; }},
    {"train.apply_seconds", kGauge, "s",
     "Optimizer and K-FAC apply time this step",
     [](const R& r) { return r.sample.apply_seconds; }},
    {"train.backward_seconds", kGauge, "s", "Backward pass time this step",
     [](const R& r) { return r.sample.backward_seconds; }},
    {"train.forward_seconds", kGauge, "s", "Forward pass time this step",
     [](const R& r) { return r.sample.forward_seconds; }},
    {"train.loss", kGauge, "nats", "Training loss this step",
     [](const R& r) { return r.sample.loss; }},
    {"train.lr", kGauge, "1", "Learning rate this step",
     [](const R& r) { return r.sample.lr; }},
    {"train.step_seconds", kGauge, "s", "Wall time of the whole step",
     [](const R& r) { return r.sample.step_seconds; }},
};

}  // namespace

std::span<const MetricDef> metric_table() { return kMetrics; }

void write_jsonl(std::ostream& out, const StepRecord& record) {
  out << "{\"step\":" << record.sample.step;
  char buf[48];
  for (const MetricDef& metric : kMetrics) {
    out << ",\"" << metric.name << "\":";
    const double v = metric.value(record);
    if (metric.kind == MetricKind::kCounter) {
      out << static_cast<uint64_t>(v);
    } else if (!std::isfinite(v)) {
      out << "null";  // JSON has no NaN
    } else {
      // %.17g round-trips doubles but litters the file with noise digits;
      // %.9g keeps float32-sourced values exact and seconds at nanosecond
      // granularity, which is all the gauges carry.
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      out << buf;
    }
  }
  out << "}\n";
}

OverlapDerived derive_overlap(const comm::AsyncCommStats& async) {
  OverlapDerived out;
  out.hidden_seconds = async.overlap_won_seconds();
  out.exposed_seconds = async.comm_seconds - out.hidden_seconds;
  return out;
}

StepMetricsLogger::StepMetricsLogger(const std::string& path) {
  if (!path.empty()) {
    out_.open(path, std::ios::trunc);
    if (!out_) throw Error("obs: cannot open metrics file for write: " + path);
  }
}

void StepMetricsLogger::record(
    const StepSample& sample, const comm::CommStats& comm,
    const kfac::KfacPreconditioner::StepReport* report,
    const comm::ArenaStats& arena) {
  if (report != nullptr) {
    if (report->factors_updated) ++kfac_totals_.factor_updates;
    if (report->decompositions_updated) ++kfac_totals_.decomp_updates;
    kfac_totals_.decomp_intra_tasks +=
        static_cast<uint64_t>(report->decomp_intra_tasks);
    kfac_totals_.decomp_inter_tasks +=
        static_cast<uint64_t>(report->decomp_inter_tasks);
  }
  if (!out_.is_open()) return;
  write_jsonl(out_, StepRecord{sample, comm, report, arena, kfac_totals_,
                               comm::net::faultnet::counts()});
  out_.flush();  // keep the file tailable while training runs
  // A full disk (or yanked volume) must not silently truncate the JSONL:
  // metrics are observability, so degrade to one logged warning instead
  // of failing the training step.
  if (!out_ && !write_failure_logged_) {
    write_failure_logged_ = true;
    DKFAC_LOG_WARN << "obs: metrics write failed (disk full?) — "
                      "further step records will be dropped";
  }
}

}  // namespace dkfac::obs
