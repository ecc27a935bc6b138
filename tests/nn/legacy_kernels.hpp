// Reference copies of the nn glue kernels as they were before the copy-free
// rewrite of conv2d/batchnorm/activation: the zero-filled im2col/col2im with
// per-element bounds checks, the copy-and-branch ReLU, and BatchNorm with
// serial per-channel reductions. The parity tests assert that the library's
// kernels reproduce these bit for bit at every thread count, and
// no bench times them: they are an oracle, not a speed baseline.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/blas.hpp"
#include "nn/conv2d.hpp"
#include "tensor/tensor.hpp"

namespace dkfac::nn::legacy {

inline Tensor im2col(const Tensor& x, int64_t kernel, int64_t stride,
                     int64_t padding) {
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = conv_out_size(h, kernel, stride, padding);
  const int64_t ow = conv_out_size(w, kernel, stride, padding);
  const int64_t patch_dim = c * kernel * kernel;

  Tensor cols(Shape{n * oh * ow, patch_dim});
#pragma omp parallel for schedule(static)
  for (int64_t img = 0; img < n; ++img) {
    const float* src = x.data() + img * c * h * w;
    for (int64_t r = 0; r < oh; ++r) {
      for (int64_t col = 0; col < ow; ++col) {
        float* dst = cols.data() + ((img * oh + r) * ow + col) * patch_dim;
        const int64_t h0 = r * stride - padding;
        const int64_t w0 = col * stride - padding;
        for (int64_t ch = 0; ch < c; ++ch) {
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t hh = h0 + kh;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t ww = w0 + kw;
              const bool inside = hh >= 0 && hh < h && ww >= 0 && ww < w;
              *dst++ = inside ? src[(ch * h + hh) * w + ww] : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

inline Tensor col2im(const Tensor& cols, Shape image_shape, int64_t kernel,
                     int64_t stride, int64_t padding) {
  const int64_t n = image_shape[0], c = image_shape[1], h = image_shape[2],
                w = image_shape[3];
  const int64_t oh = conv_out_size(h, kernel, stride, padding);
  const int64_t ow = conv_out_size(w, kernel, stride, padding);
  const int64_t patch_dim = c * kernel * kernel;

  Tensor img(image_shape);
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    float* dst = img.data() + b * c * h * w;
    for (int64_t r = 0; r < oh; ++r) {
      for (int64_t col = 0; col < ow; ++col) {
        const float* src = cols.data() + ((b * oh + r) * ow + col) * patch_dim;
        const int64_t h0 = r * stride - padding;
        const int64_t w0 = col * stride - padding;
        for (int64_t ch = 0; ch < c; ++ch) {
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t hh = h0 + kh;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t ww = w0 + kw;
              if (hh >= 0 && hh < h && ww >= 0 && ww < w) {
                dst[(ch * h + hh) * w + ww] += src[(ch * kernel + kh) * kernel + kw];
              }
            }
          }
        }
      }
    }
  }
  return img;
}

/// Conv2d forward without bias: patches = im2col(x), rows = patches·Wᵀ,
/// permuted into NCHW.
inline Tensor conv2d_forward(const Tensor& x, const Tensor& weight, int64_t kernel,
                             int64_t stride, int64_t padding, Tensor& patches) {
  const int64_t n = x.dim(0);
  const int64_t oh = conv_out_size(x.dim(2), kernel, stride, padding);
  const int64_t ow = conv_out_size(x.dim(3), kernel, stride, padding);
  const int64_t oc = weight.dim(0);
  patches = im2col(x, kernel, stride, padding);
  Tensor rows = linalg::matmul(patches, weight, linalg::Trans::kNo, linalg::Trans::kYes);
  Tensor y(Shape{n, oc, oh, ow});
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t r = 0; r < oh; ++r) {
      for (int64_t col = 0; col < ow; ++col) {
        const float* src = rows.data() + ((b * oh + r) * ow + col) * oc;
        for (int64_t ch = 0; ch < oc; ++ch) {
          y.data()[((b * oc + ch) * oh + r) * ow + col] = src[ch] + 0.0f;
        }
      }
    }
  }
  return y;
}

/// Conv2d backward without bias: returns dx, accumulates dW into
/// `weight_grad`, and leaves the row-layout output gradient in `grad_rows`.
inline Tensor conv2d_backward(const Tensor& grad_output, const Shape& input_shape,
                              const Tensor& patches, const Tensor& weight,
                              int64_t kernel, int64_t stride, int64_t padding,
                              Tensor& weight_grad, Tensor& grad_rows) {
  const int64_t n = grad_output.dim(0), oc = grad_output.dim(1);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  grad_rows = Tensor(Shape{n * oh * ow, oc});
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t r = 0; r < oh; ++r) {
      for (int64_t col = 0; col < ow; ++col) {
        float* dst = grad_rows.data() + ((b * oh + r) * ow + col) * oc;
        for (int64_t ch = 0; ch < oc; ++ch) {
          dst[ch] = grad_output.data()[((b * oc + ch) * oh + r) * ow + col];
        }
      }
    }
  }
  linalg::gemm(1.0f, grad_rows, linalg::Trans::kYes, patches, linalg::Trans::kNo,
               1.0f, weight_grad);
  Tensor grad_patches = linalg::matmul(grad_rows, weight);
  return col2im(grad_patches, input_shape, kernel, stride, padding);
}

inline Tensor relu_forward(const Tensor& x, std::vector<uint8_t>& mask) {
  mask.assign(static_cast<size_t>(x.numel()), 0);
  Tensor y = x;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] > 0.0f) {
      mask[static_cast<size_t>(i)] = 1;
    } else {
      y[i] = 0.0f;
    }
  }
  return y;
}

inline Tensor relu_backward(const Tensor& grad_output,
                            const std::vector<uint8_t>& mask) {
  Tensor dx = grad_output;
  for (int64_t i = 0; i < dx.numel(); ++i) {
    if (!mask[static_cast<size_t>(i)]) dx[i] = 0.0f;
  }
  return dx;
}

/// BatchNorm2d's parameters, running estimates and captured batch state.
struct BatchNorm {
  float momentum = 0.1f;
  float epsilon = 1e-5f;
  Tensor gamma, beta, gamma_grad, beta_grad;
  Tensor running_mean, running_var;
  Tensor xhat, batch_inv_std;
};

inline Tensor batchnorm_forward(BatchNorm& bn, const Tensor& x, bool training) {
  const int64_t channels = x.dim(1);
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t count = n * h * w;

  Tensor mean(Shape{channels});
  Tensor var(Shape{channels});
  if (training) {
    for (int64_t c = 0; c < channels; ++c) {
      double sum = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* src = x.data() + (b * channels + c) * h * w;
        for (int64_t i = 0; i < h * w; ++i) sum += src[i];
      }
      mean[c] = static_cast<float>(sum / count);
    }
    for (int64_t c = 0; c < channels; ++c) {
      double sum = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* src = x.data() + (b * channels + c) * h * w;
        for (int64_t i = 0; i < h * w; ++i) {
          const double d = src[i] - mean[c];
          sum += d * d;
        }
      }
      var[c] = static_cast<float>(sum / count);
    }
    const float unbias = count > 1 ? static_cast<float>(count) / (count - 1) : 1.0f;
    for (int64_t c = 0; c < channels; ++c) {
      bn.running_mean[c] =
          (1.0f - bn.momentum) * bn.running_mean[c] + bn.momentum * mean[c];
      bn.running_var[c] = (1.0f - bn.momentum) * bn.running_var[c] +
                          bn.momentum * var[c] * unbias;
    }
  } else {
    mean = bn.running_mean;
    var = bn.running_var;
  }

  Tensor inv_std(Shape{channels});
  for (int64_t c = 0; c < channels; ++c) {
    inv_std[c] = 1.0f / std::sqrt(var[c] + bn.epsilon);
  }

  Tensor y(x.shape());
  Tensor xhat(x.shape());
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* src = x.data() + (b * channels + c) * h * w;
      float* xh = xhat.data() + (b * channels + c) * h * w;
      float* dst = y.data() + (b * channels + c) * h * w;
      const float m = mean[c], is = inv_std[c], g = bn.gamma[c], bt = bn.beta[c];
      for (int64_t i = 0; i < h * w; ++i) {
        xh[i] = (src[i] - m) * is;
        dst[i] = g * xh[i] + bt;
      }
    }
  }
  if (training) {
    bn.xhat = std::move(xhat);
    bn.batch_inv_std = std::move(inv_std);
  }
  return y;
}

inline Tensor batchnorm_backward(BatchNorm& bn, const Tensor& grad_output) {
  const Shape& shape = bn.xhat.shape();
  const int64_t channels = shape[1];
  const int64_t n = shape[0], h = shape[2], w = shape[3];
  const int64_t count = n * h * w;

  Tensor sum_dy(Shape{channels});
  Tensor sum_dy_xhat(Shape{channels});
  for (int64_t c = 0; c < channels; ++c) {
    double s1 = 0.0, s2 = 0.0;
    for (int64_t b = 0; b < n; ++b) {
      const float* dy = grad_output.data() + (b * channels + c) * h * w;
      const float* xh = bn.xhat.data() + (b * channels + c) * h * w;
      for (int64_t i = 0; i < h * w; ++i) {
        s1 += dy[i];
        s2 += static_cast<double>(dy[i]) * xh[i];
      }
    }
    sum_dy[c] = static_cast<float>(s1);
    sum_dy_xhat[c] = static_cast<float>(s2);
    bn.gamma_grad[c] += sum_dy_xhat[c];
    bn.beta_grad[c] += sum_dy[c];
  }

  Tensor dx(shape);
  const float inv_count = 1.0f / static_cast<float>(count);
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* dy = grad_output.data() + (b * channels + c) * h * w;
      const float* xh = bn.xhat.data() + (b * channels + c) * h * w;
      float* out = dx.data() + (b * channels + c) * h * w;
      const float k = bn.gamma[c] * bn.batch_inv_std[c] * inv_count;
      const float s1 = sum_dy[c], s2 = sum_dy_xhat[c];
      for (int64_t i = 0; i < h * w; ++i) {
        out[i] = k * (static_cast<float>(count) * dy[i] - s1 - xh[i] * s2);
      }
    }
  }
  return dx;
}

}  // namespace dkfac::nn::legacy
