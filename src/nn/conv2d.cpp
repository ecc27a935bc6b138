#include "nn/conv2d.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "nn/init.hpp"

namespace dkfac::nn {

using linalg::gemm;
using linalg::syrk;
using linalg::Trans;

int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride, int64_t padding) {
  DKFAC_CHECK(kernel >= 1 && stride >= 1 && padding >= 0);
  const int64_t out = (in + 2 * padding - kernel) / stride + 1;
  DKFAC_CHECK(out >= 1) << "conv output collapses: in=" << in << " k=" << kernel
                        << " s=" << stride << " p=" << padding;
  return out;
}

namespace {

/// Per-thread scratch for one image's transients in a conv call: its patch
/// rows (or their gradients) and its GEMM output rows. Each slot serves
/// every Conv2d the thread runs: it grows to the largest and keeps its
/// storage.
enum Slot { kImagePatches, kImageRows, kSlots };
Tensor& scratch(Slot slot, Shape shape) {
  thread_local Tensor buffers[kSlots];
  return buffers[slot].resize_(std::move(shape));
}

/// Output columns [lo, hi) whose kernel tap `kw` lands inside a row of
/// `w` pixels: 0 <= col·stride − padding + kw < w.
struct ColumnRange {
  int64_t lo, hi;
};

ColumnRange inside_columns(int64_t kw, int64_t w, int64_t ow, int64_t stride,
                           int64_t padding) {
  const int64_t offset = kw - padding;
  const int64_t lo = std::min(ow, offset >= 0 ? 0 : (stride - 1 - offset) / stride);
  const int64_t last = w - 1 - offset;  // col·stride must not exceed this
  const int64_t hi = last < 0 ? lo : std::clamp(last / stride + 1, lo, ow);
  return {lo, hi};
}

/// im2col of output row r of one C×H×W image: writes its OW patch rows to
/// `block` tap by tap — for each (kw, ch, kh) one strided column of the
/// block, zeros where the tap falls in the padding, otherwise a gather
/// along one input row. The block stays in L1 while it is filled.
void im2col_row(const float* src, int64_t c, int64_t h, int64_t w, int64_t r,
                int64_t kernel, int64_t stride, int64_t padding, float* block) {
  const int64_t ow = conv_out_size(w, kernel, stride, padding);
  const int64_t patch_dim = c * kernel * kernel;
  const int64_t h0 = r * stride - padding;
  for (int64_t kw = 0; kw < kernel; ++kw) {
    const ColumnRange inside = inside_columns(kw, w, ow, stride, padding);
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t kh = 0; kh < kernel; ++kh) {
        float* dst = block + (ch * kernel + kh) * kernel + kw;
        const int64_t hh = h0 + kh;
        const ColumnRange in = hh >= 0 && hh < h ? inside : ColumnRange{ow, ow};
        for (int64_t col = 0; col < in.lo; ++col) dst[col * patch_dim] = 0.0f;
        if (in.lo < in.hi) {
          const float* row = src + (ch * h + hh) * w;
          for (int64_t col = in.lo; col < in.hi; ++col) {
            dst[col * patch_dim] = row[col * stride + kw - padding];
          }
        }
        for (int64_t col = in.hi; col < ow; ++col) dst[col * patch_dim] = 0.0f;
      }
    }
  }
}

/// col2im of one image: folds its OH·OW patch-gradient rows `block` into
/// the C×H×W image `dst`, which it overwrites. Every image element receives
/// its contributions in ascending (r, col) order, as a position-by-position
/// scatter adds them. Within one output row r a tap (kw, ch, kh) adds a
/// strided column of the block into one input row, and an element gets at
/// most one contribution per tap; a lower kw means a higher col, so walking
/// kw downwards and col upwards keeps that order.
void col2im_image(const float* block, int64_t c, int64_t h, int64_t w,
                  int64_t kernel, int64_t stride, int64_t padding, float* dst) {
  const int64_t oh = conv_out_size(h, kernel, stride, padding);
  const int64_t ow = conv_out_size(w, kernel, stride, padding);
  const int64_t patch_dim = c * kernel * kernel;
  std::fill(dst, dst + c * h * w, 0.0f);
  for (int64_t r = 0; r < oh; ++r, block += ow * patch_dim) {
    const int64_t h0 = r * stride - padding;
    const int64_t kh_lo = std::max<int64_t>(0, -h0);
    const int64_t kh_hi = std::min(kernel, h - h0);
    for (int64_t kw = kernel - 1; kw >= 0; --kw) {
      const ColumnRange in = inside_columns(kw, w, ow, stride, padding);
      for (int64_t ch = 0; ch < c; ++ch) {
        for (int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          float* row = dst + (ch * h + h0 + kh) * w;
          const float* src = block + (ch * kernel + kh) * kernel + kw;
          for (int64_t col = in.lo; col < in.hi; ++col) {
            row[col * stride + kw - padding] += src[col * patch_dim];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor im2col(const Tensor& x, int64_t kernel, int64_t stride, int64_t padding) {
  DKFAC_CHECK(x.ndim() == 4) << "im2col expects NCHW, got " << x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = conv_out_size(h, kernel, stride, padding);
  const int64_t ow = conv_out_size(w, kernel, stride, padding);
  const int64_t patch_dim = c * kernel * kernel;
  Tensor cols = Tensor::uninitialized(Shape{n * oh * ow, patch_dim});
#pragma omp parallel for collapse(2) schedule(static)
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t r = 0; r < oh; ++r) {
      im2col_row(x.data() + img * c * h * w, c, h, w, r, kernel, stride, padding,
                 cols.data() + (img * oh + r) * ow * patch_dim);
    }
  }
  return cols;
}

Tensor col2im(const Tensor& cols, Shape image_shape, int64_t kernel,
              int64_t stride, int64_t padding) {
  DKFAC_CHECK(image_shape.ndim() == 4) << "col2im target must be NCHW";
  const int64_t n = image_shape[0], c = image_shape[1], h = image_shape[2],
                w = image_shape[3];
  const int64_t oh = conv_out_size(h, kernel, stride, padding);
  const int64_t ow = conv_out_size(w, kernel, stride, padding);
  const int64_t patch_dim = c * kernel * kernel;
  DKFAC_CHECK(cols.ndim() == 2 && cols.dim(0) == n * oh * ow &&
              cols.dim(1) == patch_dim)
      << "col2im input shape " << cols.shape() << " inconsistent with image "
      << image_shape;

  Tensor img = Tensor::uninitialized(std::move(image_shape));
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    col2im_image(cols.data() + b * oh * ow * patch_dim, c, h, w, kernel, stride,
                 padding, img.data() + b * c * h * w);
  }
  return img;
}

Conv2d::Conv2d(Conv2dSpec spec, Rng& rng, std::string name)
    : spec_(spec),
      patch_dim_(spec.in_channels * spec.kernel * spec.kernel),
      name_(std::move(name)),
      weight_(name_ + ".weight", Tensor(Shape{spec.out_channels, patch_dim_})) {
  DKFAC_CHECK(spec.in_channels > 0 && spec.out_channels > 0)
      << name_ << ": invalid channel counts";
  kaiming_normal(weight_.value, patch_dim_, rng);
  if (spec_.bias) {
    bias_param_.emplace(name_ + ".bias", Tensor(Shape{spec.out_channels}));
  }
}

Tensor Conv2d::forward(const Tensor& x) {
  DKFAC_CHECK(x.ndim() == 4 && x.dim(1) == spec_.in_channels)
      << name_ << ": input " << x.shape() << " expected [N, " << spec_.in_channels
      << ", H, W]";
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = conv_out_size(h, spec_.kernel, spec_.stride, spec_.padding);
  const int64_t ow = conv_out_size(w, spec_.kernel, spec_.stride, spec_.padding);
  const int64_t oc = spec_.out_channels;
  const int64_t positions = oh * ow;
  const bool train = training();
  if (train) {  // evaluation leaves the last training step's state as it was
    input_shape_ = x.shape();
    patches_.resize_(Shape{n * positions, patch_dim_});
    has_batch_ = true;
    has_grad_ = false;
  }

  // One image per step of a thread: its patch rows are unfolded into
  // per-thread scratch, multiplied there by Wᵀ (a serial GEMM, which per
  // element sums the same products in the same order as one call over all
  // rows), permuted into NCHW, and in training copied into patches_.
  Tensor y = Tensor::uninitialized(Shape{n, oc, oh, ow});
#pragma omp parallel
  {
    Tensor& patches = scratch(kImagePatches, Shape{positions, patch_dim_});
    Tensor& rows = scratch(kImageRows, Shape{positions, oc});
#pragma omp for schedule(static)
    for (int64_t b = 0; b < n; ++b) {
      const float* image = x.data() + b * c * h * w;
      for (int64_t r = 0; r < oh; ++r) {
        im2col_row(image, c, h, w, r, spec_.kernel, spec_.stride, spec_.padding,
                   patches.data() + r * ow * patch_dim_);
      }
      gemm(1.0f, patches, Trans::kNo, weight_.value, Trans::kYes, 0.0f, rows);
      for (int64_t ch = 0; ch < oc; ++ch) {
        float* dst = y.data() + (b * oc + ch) * positions;
        const float bias = spec_.bias ? bias_param_->value[ch] : 0.0f;
        for (int64_t p = 0; p < positions; ++p) dst[p] = rows.data()[p * oc + ch] + bias;
      }
      if (train) {
        std::copy(patches.data(), patches.data() + positions * patch_dim_,
                  patches_.data() + b * positions * patch_dim_);
      }
    }
  }
  return y;
}

Tensor Conv2d::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(has_batch_) << name_ << ": backward before forward";
  const int64_t n = input_shape_[0];
  const int64_t oh = conv_out_size(input_shape_[2], spec_.kernel, spec_.stride,
                                   spec_.padding);
  const int64_t ow = conv_out_size(input_shape_[3], spec_.kernel, spec_.stride,
                                   spec_.padding);
  const int64_t oc = spec_.out_channels;
  const int64_t positions = oh * ow;
  DKFAC_CHECK(grad_output.shape() == Shape({n, oc, oh, ow}))
      << name_ << ": grad shape " << grad_output.shape();

  // One image per step of a thread: its output gradient is permuted into
  // the forward GEMM's row layout (kept in grad_rows_ for dW and the G
  // factor), multiplied by W into per-thread patch gradients (a serial
  // GEMM, which per element sums the same products in the same order as
  // one call over all rows), and folded by col2im while still in cache.
  grad_rows_.resize_(Shape{n * positions, oc});
  has_grad_ = true;
  const int64_t c = input_shape_[1], h = input_shape_[2], w = input_shape_[3];
  Tensor dx = Tensor::uninitialized(input_shape_);
#pragma omp parallel
  {
    Tensor& rows = scratch(kImageRows, Shape{positions, oc});
    Tensor& grad_patches = scratch(kImagePatches, Shape{positions, patch_dim_});
#pragma omp for schedule(static)
    for (int64_t b = 0; b < n; ++b) {
      const float* src = grad_output.data() + b * oc * positions;
      for (int64_t ch = 0; ch < oc; ++ch) {
        for (int64_t p = 0; p < positions; ++p) {
          rows.data()[p * oc + ch] = src[ch * positions + p];
        }
      }
      std::copy(rows.data(), rows.data() + positions * oc,
                grad_rows_.data() + b * positions * oc);
      gemm(1.0f, rows, Trans::kNo, weight_.value, Trans::kNo, 0.0f, grad_patches);
      col2im_image(grad_patches.data(), c, h, w, spec_.kernel, spec_.stride,
                   spec_.padding, dx.data() + b * c * h * w);
    }
  }

  // dW += rowsᵀ·patches ; db += column sums.
  gemm(1.0f, grad_rows_, Trans::kYes, patches_, Trans::kNo, 1.0f, weight_.grad);
  if (spec_.bias) {
    const int64_t rows_n = grad_rows_.dim(0);
    for (int64_t i = 0; i < rows_n; ++i) {
      const float* row = grad_rows_.data() + i * oc;
      for (int64_t ch = 0; ch < oc; ++ch) bias_param_->grad[ch] += row[ch];
    }
  }
  return dx;
}

std::vector<Parameter*> Conv2d::local_parameters() {
  std::vector<Parameter*> out{&weight_};
  if (spec_.bias) out.push_back(&*bias_param_);
  return out;
}

Tensor Conv2d::kfac_a_factor() const {
  DKFAC_CHECK(has_batch_) << name_ << ": no forward pass captured for A factor";
  const int64_t rows = patches_.dim(0);  // N·OH·OW
  const int64_t d = kfac_a_dim();
  // A = E[ã ãᵀ] is a Gram matrix — syrk computes the upper triangle only
  // (~half the flops) and mirrors, so the factor is exactly symmetric.
  Tensor a(Shape{d, d});
  if (!spec_.bias) {
    syrk(1.0f / static_cast<float>(rows), patches_, Trans::kYes, 0.0f, a);
    return a;
  }
  Tensor augmented(Shape{rows, d});
  for (int64_t i = 0; i < rows; ++i) {
    const float* src = patches_.data() + i * patch_dim_;
    float* dst = augmented.data() + i * d;
    std::copy(src, src + patch_dim_, dst);
    dst[patch_dim_] = 1.0f;
  }
  syrk(1.0f / static_cast<float>(rows), augmented, Trans::kYes, 0.0f, a);
  return a;
}

Tensor Conv2d::kfac_g_factor() const {
  DKFAC_CHECK(has_grad_) << name_ << ": no backward pass captured for G factor";
  const int64_t rows = grad_rows_.dim(0);  // N·OH·OW
  const int64_t n = input_shape_[0];
  const int64_t oc = spec_.out_channels;
  // Per-sample output grads are N·g (mean loss); average the outer product
  // over batch and spatial positions: G = N²/(N·OH·OW) · rowsᵀ·rows.
  const float scale = static_cast<float>(n) * static_cast<float>(n) /
                      static_cast<float>(rows);
  Tensor g(Shape{oc, oc});
  syrk(scale, grad_rows_, Trans::kYes, 0.0f, g);
  return g;
}

Tensor Conv2d::kfac_grad() const {
  if (!spec_.bias) return weight_.grad;
  const int64_t oc = spec_.out_channels;
  Tensor combined(Shape{oc, patch_dim_ + 1});
  for (int64_t i = 0; i < oc; ++i) {
    const float* src = weight_.grad.data() + i * patch_dim_;
    float* dst = combined.data() + i * (patch_dim_ + 1);
    std::copy(src, src + patch_dim_, dst);
    dst[patch_dim_] = bias_param_->grad[i];
  }
  return combined;
}

void Conv2d::set_kfac_grad(const Tensor& grad) {
  DKFAC_CHECK(grad.ndim() == 2 && grad.dim(0) == kfac_g_dim() &&
              grad.dim(1) == kfac_a_dim())
      << name_ << ": preconditioned grad shape " << grad.shape();
  if (!spec_.bias) {
    weight_.grad = grad;
    return;
  }
  const int64_t oc = spec_.out_channels;
  for (int64_t i = 0; i < oc; ++i) {
    const float* src = grad.data() + i * (patch_dim_ + 1);
    float* dst = weight_.grad.data() + i * patch_dim_;
    std::copy(src, src + patch_dim_, dst);
    bias_param_->grad[i] = src[patch_dim_];
  }
}

}  // namespace dkfac::nn
