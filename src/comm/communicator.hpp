// Collective communication interface (the Horovod substitute).
//
// The paper's Algorithm 1 is expressed entirely in terms of three
// collectives — allreduce, allgather, broadcast — plus rank/size queries.
// This interface mirrors that surface. Production Horovod backs these with
// NCCL/MPI rings across nodes; here two interchangeable backends exist:
// the thread-backed LocalGroup/ThreadComm (N ranks as N threads over
// shared memory, see thread_comm.hpp) and the multi-process TCP
// net::SocketComm (ring/tree collectives between separate processes, see
// net/socket_comm.hpp). Both reduce in the same rank order, so training
// results are bitwise identical across backends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/codec.hpp"
#include "comm/cost_model.hpp"
#include "common/error.hpp"
#include "tensor/tensor.hpp"

namespace dkfac::comm {

/// A collective failed because a specific peer died or wedged (connection
/// closed, deadline expired, mesh link down). Subclasses Error so every
/// existing catch site keeps working; elastic callers catch this type to
/// learn WHICH rank failed and trigger re-formation instead of aborting.
class PeerFailure : public Error {
 public:
  PeerFailure(int rank, const std::string& what)
      : Error("peer rank " + std::to_string(rank) + ": " + what),
        rank_(rank) {}

  /// The rank whose connection failed.
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// A cooperative group-change request, not a failure: the elastic
/// supervisor has a joiner parked at the rendezvous that can only be
/// admitted at a generation boundary, so running ranks are asked (via
/// SIGUSR1 → TrainConfig::reform_poll) to tear down their mesh and
/// re-rendezvous. Elastic workers catch it exactly like PeerFailure minus
/// the casualty — the regrown group resumes from the durable checkpoint.
class RegrowRequest : public Error {
 public:
  explicit RegrowRequest(const std::string& what) : Error(what) {}
};

/// Reduction applied by allreduce.
enum class ReduceOp {
  kSum,
  kAverage,  // sum / size — what gradient and factor exchange use
  kMax,
};

// The ONE elementwise fold every allreduce implementation shares. The
// cross-backend bitwise-parity contract says thread, socket, and encoded
// reductions all combine contributions in ascending rank order with
// identical arithmetic; routing them through these two helpers makes that
// parity structural instead of three hand-kept copies.

/// Accumulates rank r's contribution `src` into the running fold `result`.
inline void fold_contribution(std::span<float> result,
                              std::span<const float> src, ReduceOp op) {
  if (op == ReduceOp::kMax) {
    for (size_t i = 0; i < result.size(); ++i) {
      result[i] = std::max(result[i], src[i]);
    }
  } else {
    for (size_t i = 0; i < result.size(); ++i) result[i] += src[i];
  }
}

/// Final step of a completed fold: the kAverage 1/p scale (no-op otherwise).
inline void finish_reduce(std::span<float> result, ReduceOp op, int ranks) {
  if (op != ReduceOp::kAverage) return;
  const float inv = 1.0f / static_cast<float>(ranks);
  for (float& v : result) v *= inv;
}

/// Background-pipeline counters. Shared by AsyncExecutor::stats() and
/// CommStats so the derived "overlap won" metric has a single definition.
struct AsyncCommStats {
  uint64_t submitted = 0;       ///< tensors accepted by submit()
  uint64_t batches = 0;         ///< fused execute() calls on the worker
  double comm_seconds = 0.0;    ///< worker time inside collectives
  double wait_seconds = 0.0;    ///< main-thread time blocked in wait()

  /// Communication hidden behind compute: collective time the main thread
  /// did not spend blocked for.
  double overlap_won_seconds() const {
    return comm_seconds > wait_seconds ? comm_seconds - wait_seconds : 0.0;
  }
};

/// Per-rank communication counters (drives the comm-volume ablation bench).
///
/// The logical byte counters follow one payload-contribution convention,
/// uniform across backends: allreduce counts this rank's buffer, allgather
/// counts this rank's send, broadcast counts the payload at the root only.
/// Summing any counter across ranks therefore gives the unique payload
/// injected into that collective — backends must not re-count forwarded or
/// echoed bytes here. What a backend really moved (headers, forwarding
/// hops, algorithm overhead) is the wire counters' job below.
struct CommStats {
  uint64_t allreduce_calls = 0;
  uint64_t allreduce_bytes = 0;
  uint64_t allgather_calls = 0;
  uint64_t allgather_bytes = 0;
  uint64_t broadcast_calls = 0;
  uint64_t broadcast_bytes = 0;

  // Real bytes on the wire for this rank, frame headers included — filled
  // by network backends (net::SocketComm). Shared-memory backends move no
  // wire bytes and leave these 0. Packing savings (SymmetricPacker) and
  // fusion show up here as actual transport-byte reductions.
  uint64_t wire_sent_bytes = 0;
  uint64_t wire_recv_bytes = 0;

  // Kronecker-factor exchange accounting (filled by KfacPreconditioner) —
  // the full reduction chain dense → packed → encoded: the bytes a dense
  // n×n FP32 factor allreduce would have shipped, the bytes after
  // structural packing (upper triangles when symmetric_comm is on), and
  // the bytes that actually entered the collective after the precision
  // codec (16-bit payloads when factor_precision is fp16/bf16; equal to
  // packed at fp32). factor_encoded_bytes is already included in
  // allreduce_bytes, so dense − encoded is the total reduction won.
  uint64_t factor_dense_bytes = 0;
  uint64_t factor_packed_bytes = 0;
  uint64_t factor_encoded_bytes = 0;

  // Decomposition-allgather accounting: the bytes this rank's dense
  // decomposition send would take vs the bytes it actually sent
  // (triangle-packed explicit inverses when symmetric_comm is on). Same
  // per-rank-send convention as allgather_bytes, which these are part of.
  uint64_t decomp_dense_bytes = 0;
  uint64_t decomp_packed_bytes = 0;

  // Comm-arena allocator traffic, summed by the trainer across every
  // per-step comm-path arena (the preconditioner's factor slot arena and
  // the fusion buffers' staging arenas). steady_state_allocs counts heap
  // allocations after warm-up was declared over — the zero-copy contract
  // says it stays 0, and the trainer integration test asserts it.
  uint64_t arena_bytes_reserved = 0;
  uint64_t steady_state_allocs = 0;

  // Async-overlap accounting, filled by the trainer from AsyncExecutor
  // when overlap_comm is on.
  AsyncCommStats async;

  uint64_t total_bytes() const {
    return allreduce_bytes + allgather_bytes + broadcast_bytes;
  }
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// In-place elementwise reduction across all ranks. Deterministic:
  /// contributions are combined in rank order on every rank.
  virtual void allreduce(std::span<float> data, ReduceOp op) = 0;

  /// Concatenation of every rank's contribution in rank order. Sizes may
  /// differ per rank (allgatherv semantics, like Horovod's allgather).
  virtual std::vector<float> allgather(std::span<const float> send) = 0;

  /// allgather into a caller-owned buffer (resized to fit), so repeated
  /// gathers of a fixed shape reuse one allocation instead of returning a
  /// fresh vector per call — the zero-steady-state-allocation contract of
  /// the encoded reduction path. Backends override this as the primary
  /// implementation (allgather() wraps it); the default forwards to
  /// allgather() so minimal Communicator implementations keep working.
  virtual void allgather_into(std::span<const float> send,
                              std::vector<float>& recv) {
    recv = allgather(send);
  }

  /// Copies `data` from `root` to all ranks.
  virtual void broadcast(std::span<float> data, int root) = 0;

  virtual void barrier() = 0;

  /// Allreduce over a codec-encoded (fp16/bf16) payload: `data` holds
  /// 16-bit elements bit-packed two per float (comm::Codec's transport
  /// layout). Semantics are "encode once, reduce in fp32": every rank's
  /// encoded contribution is gathered verbatim (byte-exact transport),
  /// decoded to fp32, folded in rank order — the same fold as
  /// allreduce() — and the identical result is re-encoded on every rank.
  /// One definition over the virtual allgather serves every backend, so
  /// thread and socket runs stay bitwise identical to each other at any
  /// precision. Counted in allreduce_calls/bytes (at the encoded size),
  /// like the lossless collective it replaces.
  ///
  /// Scaling trade-off: encode-once forbids re-quantising partial sums,
  /// so the transport is an allgather of contributions — O((p−1)·n/2)
  /// wire bytes per rank versus a bandwidth-optimal ring allreduce's
  /// ~2·n·(p−1)/p of the fp32 payload. Against SocketComm's rank-order-
  /// preserving algorithms the encoded path ships half the bytes of the
  /// circulating allreduce at every p and beats the pipelined ring up to
  /// p ≈ 4; beyond that the gather term dominates and fp32 can be
  /// cheaper on the wire. Compression is aimed at the small-world /
  /// latency-bound factor exchanges the paper targets, not at large p.
  void allreduce_encoded(std::span<float> data, Precision precision,
                         ReduceOp op);

  /// The α–β model of this backend's fabric. Everything tuned above the
  /// collectives — AsyncExecutor's eager threshold, fusion-buffer
  /// capacities, SocketComm's per-size algorithm choice — derives from
  /// this instead of hard-coding numbers for one backend.
  virtual const CostModel& cost_model() const {
    static const CostModel kDefault{};
    return kDefault;
  }

  const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Records one factor exchange along the full reduction chain:
  /// `dense_bytes` is the dense n×n FP32 payload, `packed_bytes` the
  /// payload after structural packing (equal to dense when packing is
  /// off), `encoded_bytes` what actually entered the collective after the
  /// precision codec (equal to packed at fp32).
  void record_factor_volume(uint64_t dense_bytes, uint64_t packed_bytes,
                            uint64_t encoded_bytes) {
    stats_.factor_dense_bytes += dense_bytes;
    stats_.factor_packed_bytes += packed_bytes;
    stats_.factor_encoded_bytes += encoded_bytes;
  }

  /// Records one decomposition allgather: `dense_bytes` is the dense
  /// payload, `actual_bytes` what was really gathered (equal when the
  /// decomposition is not symmetry-packable).
  void record_decomp_volume(uint64_t dense_bytes, uint64_t actual_bytes) {
    stats_.decomp_dense_bytes += dense_bytes;
    stats_.decomp_packed_bytes += actual_bytes;
  }

  // ---- tensor conveniences ---------------------------------------------

  void allreduce(Tensor& t, ReduceOp op) { allreduce(t.span(), op); }
  void broadcast(Tensor& t, int root) { broadcast(t.span(), root); }

 protected:
  CommStats stats_;

 private:
  // allreduce_encoded's gather destination and fp32 fold scratch, reused
  // across calls — the encoded reduction runs once per fused chunk, and
  // reallocating chunk-sized buffers there would put megabyte mallocs on
  // the comm worker's hot path (ThreadComm keeps reduce_scratch_ for the
  // same reason). Collectives are single-caller per communicator (see the
  // AsyncExecutor threading contract), so plain members are safe.
  std::vector<float> encoded_gather_;
  std::vector<float> encoded_fold_result_;
  std::vector<float> encoded_fold_scratch_;
};

/// Size-1 communicator: every collective is a no-op (single-process runs).
class SelfComm final : public Communicator {
 public:
  using Communicator::allreduce;
  using Communicator::broadcast;

  int rank() const override { return 0; }
  int size() const override { return 1; }

  const CostModel& cost_model() const override {
    static const CostModel kModel = CostModel::shared_memory();
    return kModel;
  }

  void allreduce(std::span<float> data, ReduceOp op) override {
    stats_.allreduce_calls++;
    stats_.allreduce_bytes += data.size_bytes();
    (void)op;
  }

  std::vector<float> allgather(std::span<const float> send) override {
    std::vector<float> out;
    allgather_into(send, out);
    return out;
  }

  void allgather_into(std::span<const float> send,
                      std::vector<float>& recv) override {
    stats_.allgather_calls++;
    stats_.allgather_bytes += send.size_bytes();
    recv.assign(send.begin(), send.end());
  }

  void broadcast(std::span<float> data, int root) override {
    stats_.broadcast_calls++;
    stats_.broadcast_bytes += data.size_bytes();
    (void)root;
  }

  void barrier() override {}
};

}  // namespace dkfac::comm
