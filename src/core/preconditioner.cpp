#include "core/preconditioner.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <span>

#include "comm/cost_model.hpp"
#include "comm/symmetric_packer.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "linalg/batch.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "obs/trace.hpp"

namespace dkfac::kfac {

namespace {

/// Fusion-buffer capacity for the factor allreduce: the backend's own α–β
/// cost model's bandwidth-dominated chunk size for this world size.
/// Validates first — this runs in the member-init list, before the
/// constructor body, so a bad option set must surface as an options error
/// rather than a low-level fusion-buffer failure.
size_t factor_fusion_capacity(const KfacOptions& options,
                              const comm::Communicator& comm) {
  options.validate();
  return comm.cost_model().recommended_fusion_bytes(comm.size());
}

// The in-place offset walk both Kronecker exchanges share. A slot holds
// `units` fp32 payloads back to back: unit u's count(u) elements at its
// packed offset P_u = Σ_{v<u} count(v). A lossy precision shrinks each
// payload, inside the same slot, to its ⌈count(u)/2⌉-float codec image at
// the encoded offset E_u = Σ_{v<u} ⌈count(v)/2⌉ ≤ P_u. Encoding walks the
// units ascending, so every image lands at or below payload already read;
// decoding walks them descending, so every payload expands over images
// already read (codec.hpp spells out the aliasing proof). At fp32 the wire
// image is the payload itself.

/// Pack → encode: `fill(u, payload)` writes unit u's fp32 payload at P_u, a
/// lossy precision encodes it in place to E_u, and `ship(u, offset, floats)`
/// receives the unit's wire image as a range of the slot.
template <typename Count, typename Fill, typename Ship>
void encode_slot(std::span<float> slot, int64_t units, comm::Precision prec,
                 Count count, Fill fill, Ship ship) {
  const bool lossy = prec != comm::Precision::kFp32;
  size_t packed = 0;
  size_t encoded = 0;
  for (int64_t u = 0; u < units; ++u) {
    const int64_t n = count(u);
    const auto floats = static_cast<size_t>(n);
    const auto encoded_floats =
        static_cast<size_t>(comm::Codec::encoded_floats(n));
    const std::span<float> payload = slot.subspan(packed, floats);
    fill(u, payload);
    if (lossy) {
      comm::Codec::encode(payload, slot.subspan(encoded, encoded_floats), prec);
      ship(u, encoded, encoded_floats);
    } else {
      ship(u, packed, floats);
    }
    packed += floats;
    encoded += encoded_floats;
  }
}

/// Decode → unpack, the inverse of encode_slot: walking the units
/// descending, a lossy precision decodes unit u's wire image at E_u back to
/// its fp32 payload at P_u in place, then `drain(u, payload)` reads it.
template <typename Count, typename Drain>
void decode_slot(std::span<float> slot, int64_t units, comm::Precision prec,
                 Count count, Drain drain) {
  size_t packed = 0;
  size_t encoded = 0;
  for (int64_t u = 0; u < units; ++u) {
    packed += static_cast<size_t>(count(u));
    encoded += static_cast<size_t>(comm::Codec::encoded_floats(count(u)));
  }
  for (int64_t u = units - 1; u >= 0; --u) {
    const int64_t n = count(u);
    const auto floats = static_cast<size_t>(n);
    const auto encoded_floats =
        static_cast<size_t>(comm::Codec::encoded_floats(n));
    packed -= floats;
    encoded -= encoded_floats;
    const std::span<float> payload = slot.subspan(packed, floats);
    if (prec != comm::Precision::kFp32) {
      comm::Codec::decode(slot.subspan(encoded, encoded_floats), payload, prec);
    }
    drain(u, payload);
  }
}

/// Gives `t` the shape `dims`, keeping its storage; once it has that shape
/// (every exchange after the first) not even a Shape is built.
void ensure_shape(Tensor& t, std::initializer_list<int64_t> dims) {
  const std::vector<int64_t>& have = t.shape().dims();
  if (!std::equal(have.begin(), have.end(), dims.begin(), dims.end())) {
    t.resize_(Shape(dims));
  }
}

}  // namespace

KfacPreconditioner::KfacPreconditioner(nn::Layer& model, comm::Communicator& comm,
                                       KfacOptions options)
    : model_(model),
      comm_(comm),
      options_(options),
      fusion_(comm_, factor_fusion_capacity(options_, comm_)) {
  // options_ already validated by factor_fusion_capacity in the init list.
  for (nn::KfacCapturable* layer : model_.kfac_layers()) {
    LayerState state;
    state.layer = layer;
    state.a.dim = layer->kfac_a_dim();
    state.g.dim = layer->kfac_g_dim();
    layers_.push_back(std::move(state));
    factor_dims_.push_back(layer->kfac_a_dim());
    factor_dims_.push_back(layer->kfac_g_dim());
  }
  DKFAC_CHECK(!layers_.empty())
      << "model contains no K-FAC-eligible (Linear/Conv2d) layers";
  assignment_ = make_assignment(options_.strategy, factor_dims_, comm_.size());
}

KfacPreconditioner::~KfacPreconditioner() {
  try {
    finish_factor_comm();
  } catch (...) {
    // Destructors must not throw; the executor keeps its error sticky for
    // whoever waits on it next.
  }
}

// Every runtime retune goes through the same validate() as construction, on
// a copy so a rejected value leaves the live options untouched.

void KfacPreconditioner::set_damping(float damping) {
  KfacOptions next = options_;
  next.damping = damping;
  next.validate();
  options_ = next;
}

void KfacPreconditioner::set_lr(float lr) {
  KfacOptions next = options_;
  next.lr = lr;
  next.validate();
  options_ = next;
}

void KfacPreconditioner::set_update_freqs(int factor_update_freq,
                                          int inv_update_freq) {
  KfacOptions next = options_;
  next.factor_update_freq = factor_update_freq;
  next.inv_update_freq = inv_update_freq;
  next.validate();
  options_ = next;
}

void KfacPreconditioner::set_async_executor(comm::AsyncExecutor* executor) {
  finish_factor_comm();
  executor_ = executor;
}

void KfacPreconditioner::step() {
  DKFAC_TRACE_SCOPE("kfac.step");
  report_ = {};

  // Straggler slack: shed this step's due factor + decomposition updates
  // (the paper's update-frequency-decay semantics as a one-shot skip).
  // Preconditioning below continues on the existing decompositions, so the
  // very first step — where none exist yet — must never be shed.
  const bool shed = skip_once_ && iteration_ > 0;
  skip_once_ = false;
  if (shed) {
    DKFAC_TRACE_SCOPE("kfac.factor_step_skipped");
    report_.factor_step_skipped = true;
  }

  if (!shed && iteration_ % options_.factor_update_freq == 0) {
    DKFAC_TRACE_SCOPE("kfac.factor_update");
    const auto start = Clock::now();
    // A factor exchange left in flight by the previous step must fold in
    // before this step's running-average update reads the covariances.
    finish_factor_comm();
    update_factors();
    report_.factors_updated = true;
    report_.factor_seconds = seconds_since(start);
  }

  if (!shed && iteration_ % options_.inv_update_freq == 0) {
    DKFAC_TRACE_SCOPE("kfac.decomposition");
    const auto start = Clock::now();
    finish_factor_comm();  // decomposition consumes the reduced factors
    update_decompositions();
    report_.decompositions_updated = true;
    report_.decomposition_seconds = seconds_since(start);
  }

  {
    DKFAC_TRACE_SCOPE("kfac.precondition");
    const auto start = Clock::now();
    if (options_.strategy == DistributionStrategy::kLayerWise) {
      // K-FAC-lw allgathers preconditioned gradients directly on the
      // communicator, which must not race the background pipeline.
      finish_factor_comm();
      precondition_layer_wise();
    } else {
      // K-FAC-opt preconditions locally — a pending factor exchange keeps
      // overlapping these GEMMs (and the next iteration's compute).
      precondition_factor_wise();
    }
    report_.precondition_seconds = seconds_since(start);
  }

  ++iteration_;
}

void KfacPreconditioner::update_factors() {
  {
    DKFAC_TRACE_SCOPE("kfac.factor_stats");
    // Local factor estimates folded into running averages (Eqs 16–17).
    const float xi = options_.factor_decay;
    for (LayerState& state : layers_) {
      Tensor a_new = state.layer->kfac_a_factor();
      Tensor g_new = state.layer->kfac_g_factor();
      if (!state.a.have_cov) {
        state.a.cov = std::move(a_new);
        state.g.cov = std::move(g_new);
        state.a.have_cov = state.g.have_cov = true;
      } else {
        state.a.cov.lerp_(1.0f - xi, xi, a_new);
        state.g.cov.lerp_(1.0f - xi, xi, g_new);
      }
    }
  }
  DKFAC_TRACE_SCOPE_NAMED(comm_span, "kfac.factor_comm");

  // Allreduce all factors — Algorithm 1 line 8 — as upper triangles
  // (n(n+1)/2 of n² elements). A lossy factor_precision additionally
  // encodes each triangle to 16 bit before it enters the collective
  // (quantised ONCE on this rank; the collective gathers contributions
  // verbatim and folds in fp32 — see Communicator::allreduce_encoded).
  // With an attached executor the views go to the background pipeline
  // instead of being reduced here: the exchange overlaps the
  // preconditioning GEMMs and the next iteration's compute, and
  // finish_factor_comm() decodes and folds it in right before the next
  // consumer.
  //
  // Zero-copy transport: every staged representation lives in ONE arena
  // slot, laid out by encode_slot's walk. The per-factor views handed to
  // the collective are back-to-back slices of the slot, so the fusion
  // buffer reduces the slot memory directly — no staging copy — and
  // finish_factor_comm() decodes and unpacks from the same slot.
  const bool async = executor_ != nullptr;
  const comm::Precision prec = options_.factor_precision;
  const int64_t num_factors = static_cast<int64_t>(factor_dims_.size());
  const auto count = [this](int64_t f) { return factor_payload_elements(f); };

  uint64_t dense_bytes = 0;
  int64_t packed_elements = 0;
  uint64_t shipped_bytes = 0;
  for (int64_t f = 0; f < num_factors; ++f) {
    const int64_t d = factor_dims_[static_cast<size_t>(f)];
    dense_bytes += static_cast<uint64_t>(d * d) * sizeof(float);
    packed_elements += count(f);
    shipped_bytes += comm::Codec::wire_bytes(count(f), prec);
  }
  const uint64_t packed_bytes =
      static_cast<uint64_t>(packed_elements) * sizeof(float);

  // Same shape every exchange → the arena rewind hands back the same
  // block, allocation-free once warm.
  arena_.reset();
  exchange_slot_ = arena_.alloc(static_cast<size_t>(packed_elements), prec,
                                comm::BufferLayout::kTrianglePacked);
  const comm::BufferLayout wire_layout = prec == comm::Precision::kFp32
                                             ? comm::BufferLayout::kTrianglePacked
                                             : comm::BufferLayout::kEncoded;
  encode_slot(
      exchange_slot_.span(), num_factors, prec, count,
      [this](int64_t f, std::span<float> triangle) {
        comm::SymmetricPacker::pack(factor(f).cov, triangle);
      },
      [&](int64_t, size_t offset, size_t floats) {
        // Submitting per factor pipelines each view's reduction behind the
        // packing/encoding of the next one.
        const comm::BufferView view =
            exchange_slot_.subview(offset, floats, prec, wire_layout);
        if (async) {
          executor_->submit(view, comm::ReduceOp::kAverage);
        } else {
          fusion_.add(view);
        }
      });
  exchange_live_ = true;
  if (async) {
    // The executor's worker resolves the views while this thread keeps
    // computing: pin the arena so a stray reset cannot recycle the slot
    // under the in-flight collective.
    arena_.pin();
    factor_comm_pending_ = true;
  } else {
    fusion_.execute(comm::ReduceOp::kAverage);
    finish_factor_comm();  // shares the decode + unpack path
  }

  report_.factor_dense_bytes = dense_bytes;
  report_.factor_packed_bytes = packed_bytes;
  report_.factor_comm_bytes = shipped_bytes;
  report_.factor_chunks = async ? 0 : fusion_.last_chunk_count();
  report_.factor_comm_async = async;
  comm_.record_factor_volume(dense_bytes, packed_bytes, shipped_bytes);
  if (comm_span.active()) {
    // When async, this span covers pack/encode/submit only — the wire time
    // shows up on the comm.worker timeline (comm.async.flush spans).
    comm_span.set_arg("bytes", shipped_bytes);
    comm_span.set_arg("async", async ? 1 : 0);
  }
}

int64_t KfacPreconditioner::factor_payload_elements(int64_t f) const {
  return comm::SymmetricPacker::packed_size(factor_dims_[static_cast<size_t>(f)]);
}

void KfacPreconditioner::finish_factor_comm() {
  if (!factor_comm_pending_ && !exchange_live_) return;
  DKFAC_TRACE_SCOPE("kfac.factor_wait");
  if (factor_comm_pending_) {
    DKFAC_CHECK(executor_ != nullptr)
        << "async factor exchange pending without an executor";
    factor_comm_pending_ = false;
    // Unpin on every exit path: wait() rethrows a sticky pipeline error,
    // and a pinned arena would then refuse the next exchange's reset.
    struct Unpin {
      comm::Arena& arena;
      ~Unpin() { arena.unpin(); }
    } unpin{arena_};
    executor_->wait();
  }
  exchange_live_ = false;
  // Fold-in straight from the exchange slot: every rank decodes identical
  // bytes, so the covariances stay identical across ranks and backends.
  // The slot is NOT released — the next exchange's reset+alloc of the same
  // shape reuses the block, keeping malloc off the hot path even on
  // skip-heavy schedules.
  decode_slot(exchange_slot_.span(),
              static_cast<int64_t>(factor_dims_.size()),
              options_.factor_precision,
              [this](int64_t f) { return factor_payload_elements(f); },
              [this](int64_t f, std::span<float> triangle) {
                comm::SymmetricPacker::unpack(triangle, factor(f).cov);
              });
}

void KfacPreconditioner::decompose_factor(FactorState& state) const {
  DKFAC_CHECK(state.have_cov) << "decomposition requested before factors exist";
  if (options_.inverse_method == InverseMethod::kEigenDecomposition) {
    linalg::SymEig eig = linalg::sym_eig(state.cov);
    // Factors are PSD up to FP32 rounding; negative noise would make the
    // (υ_G υ_Aᵀ + γ) denominator lose positivity.
    eig.values.clamp_min_(0.0f);
    const int64_t kept = kept_rank(state.dim);
    if (kept < state.dim) {
      // Keep the top-`kept` eigenpairs (sym_eig sorts ascending, so the
      // last columns). Dropped directions behave as zero eigenvalues.
      Tensor q(Shape{state.dim, kept});
      Tensor lam(Shape{kept});
      const int64_t offset = state.dim - kept;
      for (int64_t i = 0; i < state.dim; ++i) {
        for (int64_t j = 0; j < kept; ++j) {
          q.at(i, j) = eig.vectors.at(i, offset + j);
        }
      }
      for (int64_t j = 0; j < kept; ++j) lam[j] = eig.values[offset + j];
      state.q = std::move(q);
      state.lam = std::move(lam);
    } else {
      state.q = std::move(eig.vectors);
      state.lam = std::move(eig.values);
    }
  } else {
    Tensor damped = state.cov;
    linalg::add_diagonal(damped, options_.damping);
    state.q = linalg::spd_inverse(damped);
    state.lam = Tensor(Shape{0});
  }
  state.have_decomp = true;
}

int64_t KfacPreconditioner::kept_rank(int64_t dim) const {
  if (options_.inverse_method != InverseMethod::kEigenDecomposition ||
      options_.eigen_rank_fraction >= 1.0f) {
    return dim;
  }
  const auto kept = static_cast<int64_t>(
      std::ceil(options_.eigen_rank_fraction * static_cast<float>(dim)));
  return std::max<int64_t>(1, std::min(kept, dim));
}

int64_t KfacPreconditioner::decomp_payload(int64_t dim) const {
  if (options_.inverse_method != InverseMethod::kEigenDecomposition) {
    return dim * dim;  // inverse matrix only
  }
  const int64_t kept = kept_rank(dim);
  return dim * kept + kept;  // truncated Q and Λ
}

int64_t KfacPreconditioner::shipped_decomp_payload(int64_t dim) const {
  // The explicit inverse (X+γI)⁻¹ is symmetric, so it travels as an upper
  // triangle like the factors themselves. Eigenvector matrices are not
  // symmetric — the eigen path always ships dense.
  if (options_.inverse_method == InverseMethod::kExplicitInverse) {
    return comm::SymmetricPacker::packed_size(dim);
  }
  return decomp_payload(dim);
}

int64_t KfacPreconditioner::decomp_segment_elements(int rank) const {
  int64_t elements = 0;
  for (size_t f = 0; f < factor_dims_.size(); ++f) {
    if (assignment_.owner[f] == rank) {
      elements += shipped_decomp_payload(factor_dims_[f]);
    }
  }
  return elements;
}

void KfacPreconditioner::update_decompositions() {
  const int rank = comm_.rank();
  // Hand every owned factor to the batched scheduler: large factors keep
  // the machine to themselves (intra-matrix kernels), small ones run
  // concurrently across the team. Results are identical to the plain
  // serial loop for any thread count — only wall-clock changes.
  std::vector<linalg::BatchTask> tasks;
  for (int64_t f = 0; f < static_cast<int64_t>(factor_dims_.size()); ++f) {
    if (assignment_.owner[static_cast<size_t>(f)] == rank) {
      FactorState& state = factor(f);
      tasks.push_back(
          {state.dim, [this, &state] { decompose_factor(state); }});
    }
  }
  const linalg::BatchReport batch = linalg::run_decomposition_batch(tasks);
  report_.decomp_intra_tasks = batch.intra_tasks;
  report_.decomp_inter_tasks = batch.inter_tasks;
  // K-FAC-lw keeps decompositions on the owner and exchanges preconditioned
  // gradients instead (every iteration); K-FAC-opt shares decompositions
  // now so preconditioning is local forever after (Algorithm 1 line 18).
  if (options_.strategy != DistributionStrategy::kLayerWise) {
    exchange_decompositions();
  }
}

void KfacPreconditioner::exchange_decompositions() {
  if (comm_.size() == 1) return;
  DKFAC_TRACE_SCOPE("kfac.decomp_exchange");
  const int rank = comm_.rank();
  const int ranks = comm_.size();
  const comm::Precision prec = options_.factor_precision;
  const bool eigen =
      options_.inverse_method == InverseMethod::kEigenDecomposition;

  // Each rank's segment holds its owned decompositions in ascending factor
  // order — explicit inverses as triangles, eigen Q then Λ dense — so the
  // layout is fully determined by the assignment. A segment is ONE unit of
  // the slot walk: it is encoded as a single block, as peers decode it.
  const auto for_each_owned = [this](int r, std::span<float> segment,
                                     auto&& visit) {
    size_t offset = 0;
    for (size_t f = 0; f < factor_dims_.size(); ++f) {
      if (assignment_.owner[f] != r) continue;
      const auto n = static_cast<size_t>(shipped_decomp_payload(factor_dims_[f]));
      visit(factor(static_cast<int64_t>(f)), segment.subspan(offset, n));
      offset += n;
    }
  };

  // Send image: this rank's segment, packed and encoded in place in a slot
  // of the factor exchange's arena (finish_factor_comm() has folded that
  // exchange in, so its slot is free to rewind).
  const int64_t own_elements = decomp_segment_elements(rank);
  arena_.reset();
  const comm::BufferView slot = arena_.alloc(
      static_cast<size_t>(own_elements), prec,
      eigen ? comm::BufferLayout::kDense : comm::BufferLayout::kTrianglePacked);
  std::span<const float> wire;
  encode_slot(
      slot.span(), 1, prec, [own_elements](int64_t) { return own_elements; },
      [&](int64_t, std::span<float> segment) {
        for_each_owned(rank, segment, [eigen](FactorState& state,
                                              std::span<float> out) {
          DKFAC_CHECK(state.have_decomp);
          if (!eigen) {
            comm::SymmetricPacker::pack(state.q, out);
            return;
          }
          const auto q_floats = static_cast<size_t>(state.q.numel());
          std::copy_n(state.q.data(), q_floats, out.data());
          std::copy_n(state.lam.data(), state.lam.numel(), out.data() + q_floats);
        });
      },
      [&](int64_t, size_t offset, size_t floats) {
        wire = slot.span().subspan(offset, floats);
      });
  comm_.allgather_into(wire, gathered_);

  // Receive image: rank r's wire block sits at E_r of gathered_; a lossy
  // precision decodes it in place back to its segment at P_r, which needs
  // the buffer grown to the fp32 image first (grow-only: warm exchanges
  // stay within its capacity).
  const auto segment_elements = [this](int64_t r) {
    return decomp_segment_elements(static_cast<int>(r));
  };
  size_t wire_floats = 0;
  size_t packed_floats = 0;
  for (int r = 0; r < ranks; ++r) {
    const int64_t n = segment_elements(r);
    wire_floats += static_cast<size_t>(
        prec == comm::Precision::kFp32 ? n : comm::Codec::encoded_floats(n));
    packed_floats += static_cast<size_t>(n);
  }
  DKFAC_CHECK(gathered_.size() == wire_floats)
      << "decomposition gather holds " << gathered_.size()
      << " floats, the assignment expects " << wire_floats;
  gathered_.resize(packed_floats);

  // At fp32 this rank's own segment is skipped (it already holds the exact
  // decompositions it sent); at a lossy precision it is unpacked like any
  // other, so owners adopt the exact bytes their peers see and the
  // replicas never diverge.
  decode_slot(
      gathered_, ranks, prec, segment_elements,
      [&](int64_t r, std::span<float> segment) {
        if (r == rank && prec == comm::Precision::kFp32) return;
        for_each_owned(static_cast<int>(r), segment, [&](FactorState& state,
                                                         std::span<float> in) {
          const int64_t d = state.dim;
          if (!eigen) {
            ensure_shape(state.q, {d, d});
            comm::SymmetricPacker::unpack(in, state.q);
          } else {
            const int64_t kept = kept_rank(d);
            ensure_shape(state.q, {d, kept});
            ensure_shape(state.lam, {kept});
            const size_t q_floats = static_cast<size_t>(d * kept);
            std::copy_n(in.data(), q_floats, state.q.data());
            std::copy_n(in.data() + q_floats, kept, state.lam.data());
          }
          state.have_decomp = true;
        });
      });

  // Dense-equivalent vs actually-shipped bytes for this rank's send — the
  // same per-rank convention allgather_bytes uses, so the shipped bytes
  // (triangle-packed, then codec-encoded at a lossy precision) really are
  // a subset of that counter.
  uint64_t dense_sent = 0;
  for (size_t f = 0; f < factor_dims_.size(); ++f) {
    if (assignment_.owner[f] == rank) {
      dense_sent +=
          static_cast<uint64_t>(decomp_payload(factor_dims_[f])) * sizeof(float);
    }
  }
  comm_.record_decomp_volume(dense_sent, comm::Codec::wire_bytes(own_elements, prec));
}

Tensor KfacPreconditioner::precondition_layer(const LayerState& state,
                                              const Tensor& grad) const {
  DKFAC_CHECK(state.a.have_decomp && state.g.have_decomp)
      << state.layer->kfac_name() << ": preconditioning before decompositions";
  using linalg::matmul;
  using linalg::Trans;

  if (options_.inverse_method == InverseMethod::kExplicitInverse) {
    // Eq 12: (G+γI)⁻¹ · ∇L · (A+γI)⁻¹.
    return matmul(matmul(state.g.q, grad), state.a.q);
  }

  // Eqs 13–15. grad is [g_dim, a_dim]; Q matrices may be rank-truncated
  // (columns = kept eigenvectors).
  const float gamma = options_.damping;
  const int64_t kg = state.g.lam.dim(0);
  const int64_t ka = state.a.lam.dim(0);
  Tensor v1 = matmul(matmul(state.g.q, grad, Trans::kYes, Trans::kNo), state.a.q);
  Tensor v2 = v1;
  for (int64_t i = 0; i < kg; ++i) {
    for (int64_t j = 0; j < ka; ++j) {
      v2.at(i, j) /= state.g.lam[i] * state.a.lam[j] + gamma;
    }
  }
  if (kg == state.g.dim && ka == state.a.dim) {
    return matmul(matmul(state.g.q, v2), state.a.q, Trans::kNo, Trans::kYes);
  }
  // Truncated case: dropped eigendirections act as zero eigenvalues, so
  // every (i, j) pair outside the kept block has coefficient 1/γ:
  //   P = grad/γ + Q_G (V2 − V1/γ) Q_Aᵀ.
  Tensor correction = v2;
  correction.axpy_(-1.0f / gamma, v1);
  Tensor p = matmul(matmul(state.g.q, correction), state.a.q, Trans::kNo,
                    Trans::kYes);
  p.axpy_(1.0f / gamma, grad);
  return p;
}

float KfacPreconditioner::grad_scale(const std::vector<Tensor>& preconditioned,
                                     const std::vector<Tensor>& original) const {
  // Eq 18: ν = min(1, sqrt(κ / (α² Σᵢ Gᵢᵀ∇Lᵢ))).
  double vg_sum = 0.0;
  const double lr2 = static_cast<double>(options_.lr) * options_.lr;
  for (size_t i = 0; i < preconditioned.size(); ++i) {
    vg_sum += lr2 * preconditioned[i].dot(original[i]);
  }
  if (vg_sum <= 0.0) return 1.0f;
  return std::min(1.0f, static_cast<float>(std::sqrt(options_.kl_clip / vg_sum)));
}

void KfacPreconditioner::precondition_factor_wise() {
  // Algorithm 1 step 3: every rank preconditions every layer locally.
  std::vector<Tensor> preconditioned;
  std::vector<Tensor> original;
  preconditioned.reserve(layers_.size());
  original.reserve(layers_.size());
  for (LayerState& state : layers_) {
    Tensor grad = state.layer->kfac_grad();
    preconditioned.push_back(precondition_layer(state, grad));
    original.push_back(std::move(grad));
  }
  const float nu = grad_scale(preconditioned, original);
  for (size_t i = 0; i < layers_.size(); ++i) {
    preconditioned[i].scale_(nu);
    layers_[i].layer->set_kfac_grad(preconditioned[i]);
  }
}

void KfacPreconditioner::precondition_layer_wise() {
  // K-FAC-lw: layer owners precondition, then everyone receives the
  // preconditioned gradients — this exchange happens EVERY iteration,
  // which is exactly the communication the factor-wise scheme avoids.
  const int rank = comm_.rank();
  std::vector<Tensor> original;
  original.reserve(layers_.size());
  for (LayerState& state : layers_) {
    original.push_back(state.layer->kfac_grad());
  }

  // Send and receive buffers are members: a warm gather of the same
  // shape refills them in place.
  layer_wise_send_.clear();
  for (size_t l = 0; l < layers_.size(); ++l) {
    // Factor 2l's owner owns the layer (layer-wise assignment pairs both
    // factors on one rank).
    if (assignment_.owner[2 * l] != rank) continue;
    const Tensor p = precondition_layer(layers_[l], original[l]);
    layer_wise_send_.insert(layer_wise_send_.end(), p.data(),
                            p.data() + p.numel());
  }
  // A single rank owns every layer, so its send already is the gather.
  if (comm_.size() > 1) comm_.allgather_into(layer_wise_send_, gathered_);
  const std::vector<float>& gathered =
      comm_.size() > 1 ? gathered_ : layer_wise_send_;

  std::vector<Tensor> preconditioned(layers_.size());
  size_t offset = 0;
  for (int r = 0; r < comm_.size(); ++r) {
    for (size_t l = 0; l < layers_.size(); ++l) {
      if (assignment_.owner[2 * l] != r) continue;
      const int64_t count = layers_[l].g.dim * layers_[l].a.dim;
      DKFAC_CHECK(offset + static_cast<size_t>(count) <= gathered.size())
          << "layer-wise gather underflow";
      preconditioned[l] = Tensor(Shape{layers_[l].g.dim, layers_[l].a.dim});
      std::copy(gathered.data() + offset, gathered.data() + offset + count,
                preconditioned[l].data());
      offset += static_cast<size_t>(count);
    }
  }
  DKFAC_CHECK(offset == gathered.size()) << "layer-wise gather leftover";

  const float nu = grad_scale(preconditioned, original);
  for (size_t l = 0; l < layers_.size(); ++l) {
    preconditioned[l].scale_(nu);
    layers_[l].layer->set_kfac_grad(preconditioned[l]);
  }
}

}  // namespace dkfac::kfac
