// Heap traffic of a steady ResNet-20 training step's forward and backward,
// counted by replacing the global operator new in this binary. The check is
// structural — allocation counts and sizes, no clock: a warmed step
// allocates the same as the next one, and no more than the activations and
// input gradients the layers hand back; scratch such as im2col patch
// matrices is reused, so no patch-sized block shows up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/resnet.hpp"

// ---- global allocation counter ---------------------------------------------
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_calls{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_largest{0};

void record(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  uint64_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size, std::memory_order_relaxed)) {
  }
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

namespace dkfac::nn {
namespace {

struct Allocs {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t largest = 0;
};

constexpr int64_t kBatch = 32;
constexpr int64_t kImage = 16;
constexpr int64_t kWidth = 8;

/// Forward and backward of one training step, with the loss gradient made
/// outside the counted region.
Allocs counted_step(Layer& model, const Tensor& x, const std::vector<int64_t>& y) {
  model.zero_grad();
  g_calls = 0;
  g_bytes = 0;
  g_largest = 0;
  g_counting = true;
  Tensor logits = model.forward(x);
  g_counting = false;
  LossResult loss = softmax_cross_entropy(logits, y);
  g_counting = true;
  model.backward(loss.grad);
  g_counting = false;
  return {g_calls.load(), g_bytes.load(), g_largest.load()};
}

TEST(StepAllocations, SteadyStepAllocatesOnlyLayerOutputs) {
  Rng rng(401);
  LayerPtr model = resnet_cifar(20, 10, rng, kWidth);
  const Tensor x = Tensor::randn(Shape{kBatch, 3, kImage, kImage}, rng);
  std::vector<int64_t> y(static_cast<size_t>(kBatch));
  for (int64_t i = 0; i < kBatch; ++i) y[static_cast<size_t>(i)] = i % 10;

  counted_step(*model, x, y);  // warm-up: sizes every reused buffer
  const Allocs second = counted_step(*model, x, y);
  const Allocs third = counted_step(*model, x, y);
  EXPECT_EQ(second.calls, third.calls);
  EXPECT_EQ(second.bytes, third.bytes);

  // Bound from the layer shapes: the bytes of the tensors the layers hand
  // back, forward and backward. A stage with w·2^s channels runs at 16/2^s
  // pixels a side. A conv returns its output, then its input's gradient;
  // BatchNorm2d and ReLU return their input's size both ways, and a ReLU
  // has the shape of the BatchNorm2d before it; pooling, flatten and the
  // classifier return at most the widest activation each way. Shape
  // vectors and other bookkeeping get 64 KiB.
  const auto bytes = [](int64_t channels, int64_t side) {
    return static_cast<uint64_t>(kBatch * channels * side * side) * sizeof(float);
  };
  const auto side_of = [](int64_t channels) { return kImage * kWidth / channels; };
  const uint64_t activation_bytes = bytes(kWidth, kImage);
  uint64_t bound = 64u << 10;
  uint64_t last_batchnorm = 0;
  uint64_t smallest_patches = UINT64_MAX;
  for (Layer* m : model->modules()) {
    if (!m->children().empty()) continue;
    if (auto* conv = dynamic_cast<Conv2d*>(m)) {
      const Conv2dSpec& spec = conv->spec();
      const int64_t side = side_of(spec.out_channels);
      bound += bytes(spec.out_channels, side) +
               bytes(spec.in_channels, side * spec.stride);
      // The patch matrix, N·OH·OW × C_in·k·k, of a k×k conv.
      if (spec.kernel > 1) {
        smallest_patches =
            std::min<uint64_t>(smallest_patches, bytes(1, side) * conv->kfac_a_dim());
      }
    } else if (auto* bn = dynamic_cast<BatchNorm2d*>(m)) {
      const int64_t channels = bn->gamma().value.numel();
      last_batchnorm = bytes(channels, side_of(channels));
      bound += 2 * last_batchnorm;
    } else if (dynamic_cast<ReLU*>(m) != nullptr) {
      bound += 2 * last_batchnorm;
    } else {
      bound += 2 * activation_bytes;
    }
  }
  EXPECT_LT(second.bytes, bound);
  ASSERT_LT(activation_bytes, smallest_patches);
  EXPECT_LE(second.largest, activation_bytes)
      << "a block larger than any layer output was allocated";
}

}  // namespace
}  // namespace dkfac::nn
