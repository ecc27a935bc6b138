// Heap traffic of the decomposition exchange, counted by replacing the
// global operator new in this binary. The check is structural — allocation
// counts and sizes, no clock.
//
// Each rank thread counts only its own allocations, from the entry of the
// last collective it enters inside KfacPreconditioner::step() to the end of
// the step. On a decomposition step that collective is the decomposition
// allgather, so the window covers the gather, the in-place decode, the
// unpack into the factors' Q/Λ, and the local preconditioning after it. On
// a factor-only step it is the factor allreduce, so the window covers the
// factor unpack and the same preconditioning. A warm exchange gathers into
// a reused buffer and unpacks into the Q/Λ storage it already has, so the
// two windows allocate exactly alike, and no block in them is larger than
// one factor's decomposition payload (a buffer holding every factor's
// payload would be).
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "comm/thread_comm.hpp"
#include "core/preconditioner.hpp"
#include "nn/loss.hpp"
#include "nn/resnet.hpp"

// ---- per-thread allocation counter ------------------------------------------
namespace {

struct Allocs {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t largest = 0;
};

thread_local bool t_armed = false;     // this thread is inside a counted step
thread_local bool t_counting = false;  // ... and past its last collective's entry
thread_local Allocs t_window;

void record(std::size_t size) {
  if (!t_counting) return;
  t_window.calls++;
  t_window.bytes += size;
  t_window.largest = std::max<uint64_t>(t_window.largest, size);
}

void* allocate(std::size_t size) {
  record(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  record(size);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dkfac::kfac {
namespace {

/// Forwards every collective to `inner`; entering one inside a counted step
/// restarts the calling thread's window, so after the step the window holds
/// what the step allocated from its last collective on.
class WindowComm final : public comm::Communicator {
 public:
  explicit WindowComm(comm::Communicator& inner) : inner_(inner) {}

  using Communicator::allreduce;
  using Communicator::broadcast;

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  const comm::CostModel& cost_model() const override {
    return inner_.cost_model();
  }
  void allreduce(std::span<float> data, comm::ReduceOp op) override {
    open_window();
    inner_.allreduce(data, op);
  }
  void allgather_into(std::span<const float> send,
                      std::vector<float>& recv) override {
    open_window();
    inner_.allgather_into(send, recv);
  }
  void broadcast(std::span<float> data, int root) override {
    open_window();
    inner_.broadcast(data, root);
  }
  void barrier() override {
    open_window();
    inner_.barrier();
  }

 private:
  static void open_window() {
    if (!t_armed) return;
    t_window = {};
    t_counting = true;
  }

  comm::Communicator& inner_;
};

void run_batch(nn::Layer& model, uint64_t seed) {
  Rng rng(seed);
  const Tensor x = Tensor::randn(Shape{8, 8}, rng);
  std::vector<int64_t> labels(8);
  for (int64_t i = 0; i < 8; ++i) labels[static_cast<size_t>(i)] = i % 4;
  model.zero_grad();
  const Tensor logits = model.forward(x);
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  model.backward(loss.grad);
}

struct RankWindows {
  Allocs decomp_a;     // a warmed decomposition step
  Allocs factor_only;  // the factor-only step between two of them
  Allocs decomp_b;     // the next decomposition step
  uint64_t payload_bytes = 0;  // the largest single decomposition payload
};

/// Two thread ranks; decompositions every 2nd step, factors every step.
std::vector<RankWindows> count_windows(InverseMethod method,
                                       comm::Precision precision) {
  std::vector<RankWindows> out(2);
  comm::LocalGroup group(2);
  group.run([&](int rank, comm::Communicator& inner) {
    omp_set_num_threads(1);  // every allocation lands on the rank thread
    WindowComm comm(inner);
    Rng rng(300);
    nn::LayerPtr model = nn::mlp(8, 12, 4, rng);
    KfacOptions opts;
    opts.damping = 0.01f;
    opts.factor_update_freq = 1;
    opts.inv_update_freq = 2;
    opts.inverse_method = method;
    opts.factor_precision = precision;
    KfacPreconditioner kfac(*model, comm, opts);

    auto step = [&](int it) {
      run_batch(*model, 301 + static_cast<uint64_t>(2 * it + rank));
      for (nn::Parameter* p : model->parameters()) {
        comm.allreduce(p->grad, comm::ReduceOp::kAverage);
      }
      t_armed = true;
      kfac.step();
      t_armed = false;
      t_counting = false;
      return t_window;
    };
    // Warm-up: one decomposition step and one factor-only step size every
    // reused buffer.
    step(0);
    step(1);
    RankWindows& w = out[static_cast<size_t>(rank)];
    w.decomp_a = step(2);
    w.factor_only = step(3);
    w.decomp_b = step(4);
    for (int64_t d : kfac.factor_dims()) {
      const uint64_t floats = method == InverseMethod::kExplicitInverse
                                  ? static_cast<uint64_t>(d * d)
                                  : static_cast<uint64_t>(d * d + d);
      w.payload_bytes = std::max(w.payload_bytes, floats * sizeof(float));
    }
  });
  return out;
}

class DecompExchangeAllocs
    : public ::testing::TestWithParam<std::tuple<InverseMethod, comm::Precision>> {};

TEST_P(DecompExchangeAllocs, WarmExchangeAllocatesNothing) {
  const auto [method, precision] = GetParam();
  const std::vector<RankWindows> ranks = count_windows(method, precision);
  for (size_t r = 0; r < ranks.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const RankWindows& w = ranks[r];
    // The window opened: preconditioning allocates its outputs.
    ASSERT_GT(w.decomp_a.calls, 0u);
    EXPECT_EQ(w.decomp_a.calls, w.decomp_b.calls);
    EXPECT_EQ(w.decomp_a.bytes, w.decomp_b.bytes);
    EXPECT_LE(w.decomp_a.largest, w.payload_bytes)
        << "a block larger than any one factor's decomposition payload";
    // Gather, decode and unpack add nothing to the step's tail.
    EXPECT_EQ(w.decomp_a.calls, w.factor_only.calls);
    EXPECT_EQ(w.decomp_a.bytes, w.factor_only.bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndPrecisions, DecompExchangeAllocs,
    ::testing::Combine(::testing::Values(InverseMethod::kEigenDecomposition,
                                         InverseMethod::kExplicitInverse),
                       ::testing::Values(comm::Precision::kFp32,
                                         comm::Precision::kBf16)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ==
                                 InverseMethod::kExplicitInverse
                             ? "Inverse"
                             : "Eigen") +
             comm::precision_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dkfac::kfac
