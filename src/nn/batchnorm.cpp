#include "nn/batchnorm.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dkfac::nn {

BatchNorm2d::BatchNorm2d(int64_t channels, std::string name, float momentum,
                         float epsilon)
    : channels_(channels),
      name_(std::move(name)),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(name_ + ".gamma", Tensor::ones(Shape{channels})),
      beta_(name_ + ".beta", Tensor(Shape{channels})),
      running_mean_(Shape{channels}),
      running_var_(Tensor::ones(Shape{channels})),
      batch_inv_std_(Shape{channels}) {
  DKFAC_CHECK(channels > 0);
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  DKFAC_CHECK(x.ndim() == 4 && x.dim(1) == channels_)
      << name_ << ": input " << x.shape() << " expected [N, " << channels_
      << ", H, W]";
  const int64_t n = x.dim(0), hw = x.dim(2) * x.dim(3);
  const int64_t count = n * hw;
  DKFAC_CHECK(count > 0) << name_ << ": empty batch";

  const bool train = training();
  if (train) {
    input_shape_ = x.shape();
    xhat_.resize_(x.shape());
    has_batch_ = true;
  }
  Tensor y = Tensor::uninitialized(x.shape());
  // Running estimates use the unbiased variance, matching PyTorch.
  const float unbias = count > 1 ? static_cast<float>(count) / (count - 1) : 1.0f;

  // Channels are independent: threads split them, and each channel's
  // double-precision sums run serially in (sample, position) order, so the
  // statistics do not depend on the thread count.
#pragma omp parallel for schedule(static)
  for (int64_t c = 0; c < channels_; ++c) {
    float mean = running_mean_[c];
    float var = running_var_[c];
    if (train) {
      double sum = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* src = x.data() + (b * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) sum += src[i];
      }
      mean = static_cast<float>(sum / count);
      double sq = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* src = x.data() + (b * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          const double d = src[i] - mean;
          sq += d * d;
        }
      }
      var = static_cast<float>(sq / count);  // biased, as PyTorch normalises
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] =
          (1.0f - momentum_) * running_var_[c] + momentum_ * var * unbias;
    }
    const float is = 1.0f / std::sqrt(var + epsilon_);
    const float g = gamma_.value[c], bt = beta_.value[c];
    for (int64_t b = 0; b < n; ++b) {
      const int64_t offset = (b * channels_ + c) * hw;
      const float* src = x.data() + offset;
      float* dst = y.data() + offset;
      if (train) {
        float* xh = xhat_.data() + offset;
        for (int64_t i = 0; i < hw; ++i) {
          xh[i] = (src[i] - mean) * is;
          dst[i] = g * xh[i] + bt;
        }
      } else {
        for (int64_t i = 0; i < hw; ++i) dst[i] = g * ((src[i] - mean) * is) + bt;
      }
    }
    if (train) batch_inv_std_[c] = is;
  }
  return y;
}

Tensor BatchNorm2d::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(has_batch_) << name_ << ": backward before training forward";
  DKFAC_CHECK(grad_output.shape() == input_shape_)
      << name_ << ": grad shape " << grad_output.shape();
  const int64_t n = input_shape_[0], hw = input_shape_[2] * input_shape_[3];
  const int64_t count = n * hw;
  const float inv_count = 1.0f / static_cast<float>(count);
  Tensor dx = Tensor::uninitialized(input_shape_);

#pragma omp parallel for schedule(static)
  for (int64_t c = 0; c < channels_; ++c) {
    // Per-channel reductions: dγ = Σ dy·x̂, dβ = Σ dy.
    double s1 = 0.0, s2 = 0.0;
    for (int64_t b = 0; b < n; ++b) {
      const float* dy = grad_output.data() + (b * channels_ + c) * hw;
      const float* xh = xhat_.data() + (b * channels_ + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        s1 += dy[i];
        s2 += static_cast<double>(dy[i]) * xh[i];
      }
    }
    const float sum_dy = static_cast<float>(s1);
    const float sum_dy_xhat = static_cast<float>(s2);
    gamma_.grad[c] += sum_dy_xhat;
    beta_.grad[c] += sum_dy;

    // dx = γ·inv_std/count · (count·dy − Σdy − x̂·Σ(dy·x̂)).
    const float k = gamma_.value[c] * batch_inv_std_[c] * inv_count;
    for (int64_t b = 0; b < n; ++b) {
      const int64_t offset = (b * channels_ + c) * hw;
      const float* dy = grad_output.data() + offset;
      const float* xh = xhat_.data() + offset;
      float* out = dx.data() + offset;
      for (int64_t i = 0; i < hw; ++i) {
        out[i] = k * (static_cast<float>(count) * dy[i] - sum_dy - xh[i] * sum_dy_xhat);
      }
    }
  }
  return dx;
}

}  // namespace dkfac::nn
