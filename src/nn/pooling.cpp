#include "nn/pooling.hpp"

#include <limits>

#include "common/error.hpp"
#include "nn/conv2d.hpp"  // conv_out_size

namespace dkfac::nn {

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride, int64_t padding,
                     std::string name)
    : kernel_(kernel), stride_(stride), padding_(padding), name_(std::move(name)) {
  DKFAC_CHECK(kernel >= 1 && stride >= 1 && padding >= 0);
}

Tensor MaxPool2d::forward(const Tensor& x) {
  DKFAC_CHECK(x.ndim() == 4) << name_ << ": expects NCHW, got " << x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = conv_out_size(h, kernel_, stride_, padding_);
  const int64_t ow = conv_out_size(w, kernel_, stride_, padding_);
  // Only training keeps the argmax for backward.
  const bool train = training();
  if (train) input_shape_ = x.shape();

  Tensor y(Shape{n, c, oh, ow});
  if (train) argmax_.assign(static_cast<size_t>(y.numel()), -1);
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* src = x.data() + (b * c + ch) * h * w;
      for (int64_t r = 0; r < oh; ++r) {
        for (int64_t col = 0; col < ow; ++col) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = -1;
          for (int64_t kh = 0; kh < kernel_; ++kh) {
            const int64_t hh = r * stride_ - padding_ + kh;
            if (hh < 0 || hh >= h) continue;
            for (int64_t kw = 0; kw < kernel_; ++kw) {
              const int64_t ww = col * stride_ - padding_ + kw;
              if (ww < 0 || ww >= w) continue;
              const float v = src[hh * w + ww];
              if (v > best) {
                best = v;
                best_idx = (b * c + ch) * h * w + hh * w + ww;
              }
            }
          }
          const int64_t out_idx = ((b * c + ch) * oh + r) * ow + col;
          // A window fully inside padding has no valid element; emit 0.
          y[out_idx] = best_idx >= 0 ? best : 0.0f;
          if (train) argmax_[static_cast<size_t>(out_idx)] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(static_cast<size_t>(grad_output.numel()) == argmax_.size())
      << name_ << ": backward before forward";
  Tensor dx(input_shape_);
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    const int64_t src = argmax_[static_cast<size_t>(i)];
    if (src >= 0) dx[src] += grad_output[i];
  }
  return dx;
}

Tensor GlobalAvgPool::forward(const Tensor& x) {
  DKFAC_CHECK(x.ndim() == 4) << name_ << ": expects NCHW, got " << x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  input_shape_ = x.shape();
  Tensor y(Shape{n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* src = x.data() + (b * c + ch) * h * w;
      double sum = 0.0;
      for (int64_t i = 0; i < h * w; ++i) sum += src[i];
      y.at(b, ch) = static_cast<float>(sum) * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(input_shape_.ndim() == 4) << name_ << ": backward before forward";
  const int64_t n = input_shape_[0], c = input_shape_[1], h = input_shape_[2],
                w = input_shape_[3];
  DKFAC_CHECK(grad_output.shape() == Shape({n, c}))
      << name_ << ": grad shape " << grad_output.shape();
  Tensor dx(input_shape_);
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.at(b, ch) * inv;
      float* dst = dx.data() + (b * c + ch) * h * w;
      for (int64_t i = 0; i < h * w; ++i) dst[i] = g;
    }
  }
  return dx;
}

}  // namespace dkfac::nn
