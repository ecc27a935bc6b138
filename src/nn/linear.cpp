#include "nn/linear.hpp"

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "nn/init.hpp"

namespace dkfac::nn {

using linalg::gemm;
using linalg::matmul;
using linalg::syrk;
using linalg::Trans;

Linear::Linear(int64_t in_features, int64_t out_features, bool bias, Rng& rng,
               std::string name)
    : in_features_(in_features),
      out_features_(out_features),
      bias_(bias),
      name_(std::move(name)),
      weight_(name_ + ".weight", Tensor(Shape{out_features, in_features})) {
  DKFAC_CHECK(in_features > 0 && out_features > 0)
      << "invalid Linear dims " << in_features << "x" << out_features;
  fan_in_uniform(weight_.value, in_features_, rng);
  if (bias_) {
    bias_param_.emplace(name_ + ".bias", Tensor(Shape{out_features}));
    fan_in_uniform(bias_param_->value, in_features_, rng);
  }
}

Tensor Linear::forward(const Tensor& x) {
  DKFAC_CHECK(x.ndim() == 2 && x.dim(1) == in_features_)
      << name_ << ": input shape " << x.shape() << " expected [N, "
      << in_features_ << "]";
  if (training()) {  // evaluation leaves the last training step's state
    input_ = x;
    has_batch_ = true;
    has_grad_ = false;
  }

  Tensor y = matmul(x, weight_.value, Trans::kNo, Trans::kYes);
  if (bias_) {
    const int64_t n = y.dim(0);
    for (int64_t i = 0; i < n; ++i) {
      float* row = y.data() + i * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) row[j] += bias_param_->value[j];
    }
  }
  return y;
}

Tensor Linear::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(has_batch_) << name_ << ": backward before forward";
  DKFAC_CHECK(grad_output.ndim() == 2 && grad_output.dim(0) == input_.dim(0) &&
              grad_output.dim(1) == out_features_)
      << name_ << ": grad shape " << grad_output.shape();
  grad_output_ = grad_output;
  has_grad_ = true;

  // dW += gᵀ·x ; db += Σ_n g ; dx = g·W.
  gemm(1.0f, grad_output, Trans::kYes, input_, Trans::kNo, 1.0f, weight_.grad);
  if (bias_) {
    const int64_t n = grad_output.dim(0);
    for (int64_t i = 0; i < n; ++i) {
      const float* row = grad_output.data() + i * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) bias_param_->grad[j] += row[j];
    }
  }
  return matmul(grad_output, weight_.value);
}

std::vector<Parameter*> Linear::local_parameters() {
  std::vector<Parameter*> out{&weight_};
  if (bias_) out.push_back(&*bias_param_);
  return out;
}

Tensor Linear::kfac_a_factor() const {
  DKFAC_CHECK(has_batch_) << name_ << ": no forward pass captured for A factor";
  const int64_t n = input_.dim(0);
  const int64_t d = kfac_a_dim();
  // A = E[ã ãᵀ] over the batch, ã = [x, 1] when the layer has a bias — a
  // Gram matrix, so syrk computes only the upper triangle and mirrors.
  Tensor a(Shape{d, d});
  if (!bias_) {
    syrk(1.0f / static_cast<float>(n), input_, Trans::kYes, 0.0f, a);
    return a;
  }
  Tensor augmented(Shape{n, d});
  for (int64_t i = 0; i < n; ++i) {
    const float* src = input_.data() + i * in_features_;
    float* dst = augmented.data() + i * d;
    std::copy(src, src + in_features_, dst);
    dst[in_features_] = 1.0f;
  }
  syrk(1.0f / static_cast<float>(n), augmented, Trans::kYes, 0.0f, a);
  return a;
}

Tensor Linear::kfac_g_factor() const {
  DKFAC_CHECK(has_grad_) << name_ << ": no backward pass captured for G factor";
  const int64_t n = grad_output_.dim(0);
  // The loss is a batch mean, so per-sample output gradients are N·g_i;
  // G = E[(N·g)(N·g)ᵀ] = N · gᵀg  (matching kfac_pytorch's scaling).
  Tensor g(Shape{out_features_, out_features_});
  syrk(static_cast<float>(n), grad_output_, Trans::kYes, 0.0f, g);
  return g;
}

Tensor Linear::kfac_grad() const {
  if (!bias_) return weight_.grad;
  Tensor combined(Shape{out_features_, in_features_ + 1});
  for (int64_t i = 0; i < out_features_; ++i) {
    const float* src = weight_.grad.data() + i * in_features_;
    float* dst = combined.data() + i * (in_features_ + 1);
    std::copy(src, src + in_features_, dst);
    dst[in_features_] = bias_param_->grad[i];
  }
  return combined;
}

void Linear::set_kfac_grad(const Tensor& grad) {
  DKFAC_CHECK(grad.ndim() == 2 && grad.dim(0) == kfac_g_dim() &&
              grad.dim(1) == kfac_a_dim())
      << name_ << ": preconditioned grad shape " << grad.shape();
  if (!bias_) {
    weight_.grad = grad;
    return;
  }
  for (int64_t i = 0; i < out_features_; ++i) {
    const float* src = grad.data() + i * (in_features_ + 1);
    float* dst = weight_.grad.data() + i * in_features_;
    std::copy(src, src + in_features_, dst);
    bias_param_->grad[i] = src[in_features_];
  }
}

}  // namespace dkfac::nn
