#include "nn/activation.hpp"

#include "common/error.hpp"

namespace dkfac::nn {

// Both passes are selects, not branches — about half of a post-BatchNorm
// input is negative, so a branch would mispredict half the time — and a
// NaN or -0 input maps to +0, as `x > 0 ? x : 0` says.

Tensor ReLU::forward(const Tensor& x) {
  const int64_t n = x.numel();
  const float* in = x.data();
  Tensor y = Tensor::uninitialized(x.shape());
  float* out = y.data();
  if (!training()) {
#pragma omp parallel for simd schedule(static)
    for (int64_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    return y;
  }
  mask_.resize(static_cast<size_t>(n));
  uint8_t* mask = mask_.data();
#pragma omp parallel for simd schedule(static)
  for (int64_t i = 0; i < n; ++i) {
    const bool on = in[i] > 0.0f;
    mask[i] = on;
    out[i] = on ? in[i] : 0.0f;
  }
  return y;
}

Tensor ReLU::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(static_cast<size_t>(grad_output.numel()) == mask_.size())
      << name_ << ": backward before forward or shape changed";
  const int64_t n = grad_output.numel();
  const float* g = grad_output.data();
  const uint8_t* mask = mask_.data();
  Tensor dx = Tensor::uninitialized(grad_output.shape());
  float* out = dx.data();
#pragma omp parallel for simd schedule(static)
  for (int64_t i = 0; i < n; ++i) {
    const float gi = g[i];  // loaded unconditionally, so the select vectorizes
    out[i] = mask[i] ? gi : 0.0f;
  }
  return dx;
}

}  // namespace dkfac::nn
