// Bitwise parity of the nn glue kernels with their reference loops
// (legacy_kernels.hpp) at 1, 2 and 3 OpenMP threads, OMP-thread invariance
// of a whole ResNet-20 training step, and the rule that evaluation leaves a
// layer's training state alone.
#include <omp.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "legacy_kernels.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/resnet.hpp"

namespace dkfac::nn {
namespace {

constexpr int kThreadCounts[] = {1, 2, 3};

/// Runs `fn(threads)` at each thread count, restoring the OMP setting.
template <typename Fn>
void for_each_thread_count(Fn&& fn) {
  const int original = omp_get_max_threads();
  for (int threads : kThreadCounts) {
    omp_set_num_threads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fn(threads);
  }
  omp_set_num_threads(original);
}

void expect_bitwise(const Tensor& actual, const Tensor& expected,
                    const std::string& what) {
  ASSERT_EQ(actual.shape(), expected.shape()) << what;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        static_cast<size_t>(actual.numel()) * sizeof(float)),
            0)
      << what << " differs bitwise";
}

/// Random values with exact zeros of both signs sprinkled in, so the
/// kernels' handling of ±0 is part of what must match.
Tensor test_input(Shape shape, Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (int64_t i = 0; i < t.numel(); i += 7) t[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  return t;
}

struct ConvCase {
  int64_t n, c, h, w, kernel, stride, padding;
};

// k=1 s=2 p=0 (downsample), k=3 s=2 p=1, k=7 s=2 p=3 (ImageNet stem), the
// k=3 s=1 p=1 body conv at odd H≠W, N=1, and windows wholly in the padding.
const ConvCase kConvCases[] = {
    {4, 3, 9, 7, 1, 2, 0},   {4, 3, 9, 7, 3, 2, 1}, {2, 3, 15, 11, 7, 2, 3},
    {3, 5, 13, 6, 3, 1, 1},  {1, 4, 8, 8, 3, 1, 1}, {2, 2, 5, 4, 3, 1, 3},
    {32, 8, 16, 16, 3, 1, 1}};

std::string describe(const ConvCase& cc) {
  return "N" + std::to_string(cc.n) + " C" + std::to_string(cc.c) + " " +
         std::to_string(cc.h) + "x" + std::to_string(cc.w) + " k" +
         std::to_string(cc.kernel) + " s" + std::to_string(cc.stride) + " p" +
         std::to_string(cc.padding);
}

TEST(KernelParity, Im2colCol2imMatchReference) {
  for (const ConvCase& cc : kConvCases) {
    SCOPED_TRACE(describe(cc));
    Rng rng(301);
    const Tensor x = test_input(Shape{cc.n, cc.c, cc.h, cc.w}, rng);
    const Tensor cols_ref = legacy::im2col(x, cc.kernel, cc.stride, cc.padding);
    const Tensor grad_cols = test_input(cols_ref.shape(), rng);
    const Tensor img_ref =
        legacy::col2im(grad_cols, x.shape(), cc.kernel, cc.stride, cc.padding);
    for_each_thread_count([&](int) {
      expect_bitwise(im2col(x, cc.kernel, cc.stride, cc.padding), cols_ref, "im2col");
      expect_bitwise(col2im(grad_cols, x.shape(), cc.kernel, cc.stride, cc.padding),
                     img_ref, "col2im");
    });
  }
}

TEST(KernelParity, Conv2dForwardBackwardMatchReference) {
  for (const ConvCase& cc : kConvCases) {
    SCOPED_TRACE(describe(cc));
    Rng rng(302);
    Conv2d conv({.in_channels = cc.c, .out_channels = 6, .kernel = cc.kernel,
                 .stride = cc.stride, .padding = cc.padding},
                rng);
    const Tensor x = test_input(Shape{cc.n, cc.c, cc.h, cc.w}, rng);
    Tensor patches, grad_rows;
    const Tensor y_ref = legacy::conv2d_forward(x, conv.weight().value, cc.kernel,
                                                cc.stride, cc.padding, patches);
    const Tensor dy = test_input(y_ref.shape(), rng);
    Tensor dw_ref(conv.weight().value.shape());
    const Tensor dx_ref =
        legacy::conv2d_backward(dy, x.shape(), patches, conv.weight().value,
                                cc.kernel, cc.stride, cc.padding, dw_ref, grad_rows);
    for_each_thread_count([&](int) {
      conv.zero_grad();
      expect_bitwise(conv.forward(x), y_ref, "conv forward");
      expect_bitwise(conv.backward(dy), dx_ref, "conv input grad");
      expect_bitwise(conv.weight().grad, dw_ref, "conv weight grad");
    });
  }
}

TEST(KernelParity, ReluMatchesReference) {
  const Shape shapes[] = {Shape{32, 8, 16, 16}, Shape{3, 5, 7, 9}, Shape{1, 1, 1, 3}};
  for (const Shape& shape : shapes) {
    Rng rng(303);
    Tensor x = test_input(shape, rng);
    x[1] = std::numeric_limits<float>::quiet_NaN();
    x[2] = std::numeric_limits<float>::infinity();
    Tensor dy = test_input(shape, rng);
    dy[0] = std::numeric_limits<float>::quiet_NaN();
    std::vector<uint8_t> mask;
    const Tensor y_ref = legacy::relu_forward(x, mask);
    const Tensor dx_ref = legacy::relu_backward(dy, mask);
    for_each_thread_count([&](int) {
      ReLU relu;
      expect_bitwise(relu.forward(x), y_ref, "relu forward");
      expect_bitwise(relu.backward(dy), dx_ref, "relu backward");
      relu.set_training(false);
      expect_bitwise(relu.forward(x), y_ref, "relu eval forward");
    });
  }
}

TEST(KernelParity, BatchNormMatchesReference) {
  const Shape shapes[] = {Shape{32, 8, 16, 16}, Shape{5, 3, 7, 9}, Shape{1, 4, 3, 5},
                          Shape{2, 16, 1, 1}};
  for (const Shape& shape : shapes) {
    const int64_t channels = shape[1];
    Rng rng(304);
    const Tensor x = test_input(shape, rng);
    const Tensor dy = test_input(shape, rng);
    const Tensor gamma = Tensor::randn(Shape{channels}, rng, 1.0f, 0.3f);
    const Tensor beta = Tensor::randn(Shape{channels}, rng);

    legacy::BatchNorm ref;
    ref.gamma = gamma;
    ref.beta = beta;
    ref.gamma_grad = Tensor(Shape{channels});
    ref.beta_grad = Tensor(Shape{channels});
    ref.running_mean = Tensor(Shape{channels});
    ref.running_var = Tensor::ones(Shape{channels});
    const Tensor y_ref = legacy::batchnorm_forward(ref, x, /*training=*/true);
    const Tensor dx_ref = legacy::batchnorm_backward(ref, dy);
    const Tensor y_eval_ref = legacy::batchnorm_forward(ref, dy, /*training=*/false);

    for_each_thread_count([&](int) {
      BatchNorm2d bn(channels);
      bn.gamma().value = gamma;
      bn.beta().value = beta;
      expect_bitwise(bn.forward(x), y_ref, "bn forward");
      expect_bitwise(bn.running_mean(), ref.running_mean, "bn running mean");
      expect_bitwise(bn.running_var(), ref.running_var, "bn running var");
      expect_bitwise(bn.backward(dy), dx_ref, "bn backward");
      expect_bitwise(bn.gamma().grad, ref.gamma_grad, "bn gamma grad");
      expect_bitwise(bn.beta().grad, ref.beta_grad, "bn beta grad");
      bn.set_training(false);
      expect_bitwise(bn.forward(dy), y_eval_ref, "bn eval forward");
    });
  }
}

// ---- whole-network checks on ResNet-20 at width 8 --------------------------

constexpr int64_t kBatch = 32;
constexpr int64_t kImage = 16;

LayerPtr resnet20_w8() {
  Rng rng(305);
  return resnet_cifar(20, 10, rng, 8);
}

Tensor images(int64_t batch, uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(Shape{batch, 3, kImage, kImage}, rng);
}

std::vector<int64_t> labels(int64_t batch) {
  std::vector<int64_t> out(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) out[static_cast<size_t>(i)] = (i * 7) % 10;
  return out;
}

/// The loss, every parameter gradient and every K-FAC factor of one
/// training step.
struct StepResult {
  float loss = 0.0f;
  std::vector<Tensor> grads;
  std::vector<Tensor> factors;
};

StepResult training_step(Layer& model, const Tensor& x) {
  model.zero_grad();
  LossResult loss = softmax_cross_entropy(model.forward(x), labels(x.dim(0)));
  model.backward(loss.grad);
  StepResult out;
  out.loss = loss.loss;
  for (Parameter* p : model.parameters()) out.grads.push_back(p->grad);
  for (KfacCapturable* layer : model.kfac_layers()) {
    out.factors.push_back(layer->kfac_a_factor());
    out.factors.push_back(layer->kfac_g_factor());
  }
  return out;
}

void expect_same_step(const StepResult& actual, const StepResult& expected) {
  uint32_t loss_bits_a, loss_bits_e;
  std::memcpy(&loss_bits_a, &actual.loss, sizeof(float));
  std::memcpy(&loss_bits_e, &expected.loss, sizeof(float));
  EXPECT_EQ(loss_bits_a, loss_bits_e) << "loss";
  ASSERT_EQ(actual.grads.size(), expected.grads.size());
  for (size_t i = 0; i < actual.grads.size(); ++i) {
    expect_bitwise(actual.grads[i], expected.grads[i], "grad " + std::to_string(i));
  }
  ASSERT_EQ(actual.factors.size(), expected.factors.size());
  for (size_t i = 0; i < actual.factors.size(); ++i) {
    expect_bitwise(actual.factors[i], expected.factors[i],
                   std::string(i % 2 == 0 ? "A" : "G") + " factor of K-FAC layer " +
                       std::to_string(i / 2));
  }
}

TEST(KernelParity, ResNet20TrainingStepIsThreadInvariant) {
  const Tensor x = images(kBatch, 306);
  StepResult reference;
  for_each_thread_count([&](int threads) {
    LayerPtr model = resnet20_w8();
    StepResult step = training_step(*model, x);
    ASSERT_TRUE(std::isfinite(step.loss));
    if (threads == 1) {
      reference = std::move(step);
    } else {
      expect_same_step(step, reference);
    }
  });
}

TEST(EvalState, EvalForwardLeavesTrainingStateUntouched) {
  LayerPtr model = resnet20_w8();
  const StepResult before = training_step(*model, images(kBatch, 307));

  model->set_training(false);
  const Tensor logits = model->forward(images(256, 308));
  EXPECT_EQ(logits.shape(), Shape({256, 10}));

  StepResult after;
  for (Parameter* p : model->parameters()) after.grads.push_back(p->grad);
  for (KfacCapturable* layer : model->kfac_layers()) {
    after.factors.push_back(layer->kfac_a_factor());
    after.factors.push_back(layer->kfac_g_factor());
  }
  after.loss = before.loss;
  expect_same_step(after, before);
}

/// Asserts that `backward` throws the layer's "backward before forward"
/// error.
template <typename Fn>
void expect_backward_before_forward(Fn&& backward) {
  try {
    backward();
    ADD_FAILURE() << "backward after an eval-only forward did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("backward before"), std::string::npos)
        << e.what();
  }
}

TEST(EvalState, BackwardAfterEvalOnlyForwardFails) {
  Rng rng(309);
  Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 3, .padding = 1}, rng);
  conv.set_training(false);
  const Tensor y_conv = conv.forward(Tensor::randn(Shape{2, 2, 5, 5}, rng));
  expect_backward_before_forward([&] { conv.backward(y_conv); });

  Linear linear(4, 3, /*bias=*/true, rng);
  linear.set_training(false);
  const Tensor y_linear = linear.forward(Tensor::randn(Shape{5, 4}, rng));
  expect_backward_before_forward([&] { linear.backward(y_linear); });

  BatchNorm2d bn(2);
  bn.set_training(false);
  const Tensor y_bn = bn.forward(Tensor::randn(Shape{2, 2, 3, 3}, rng));
  expect_backward_before_forward([&] { bn.backward(y_bn); });

  ReLU relu;
  relu.set_training(false);
  const Tensor y_relu = relu.forward(Tensor::randn(Shape{2, 2, 3, 3}, rng));
  expect_backward_before_forward([&] { relu.backward(y_relu); });
}

}  // namespace
}  // namespace dkfac::nn
