// Tensor: dense row-major FP32 tensor with value semantics.
//
// This is the storage type shared by every dkfac library. It is
// deliberately simple — contiguous storage, deep-copy semantics, explicit
// element accessors — because K-FAC's hot paths (GEMM, eigensolve, im2col)
// live in dkfac_linalg / dkfac_nn and operate on raw spans.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/aligned.hpp"
#include "tensor/random.hpp"
#include "tensor/shape.hpp"

namespace dkfac {

class Tensor {
 public:
  /// Empty rank-1 tensor with zero elements.
  Tensor() : shape_({0}) {}

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.numel()), 0.0f) {}

  /// Tensor holding a copy of `values` (re-homed into aligned storage);
  /// must match shape.numel().
  Tensor(Shape shape, std::vector<float> values);

  // ---- factories -------------------------------------------------------

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  /// Tensor whose elements are left unset: for outputs a kernel overwrites
  /// in full, where a zero fill would be wasted work.
  static Tensor uninitialized(Shape shape);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float value);
  /// Identity matrix of size n×n.
  static Tensor eye(int64_t n);
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f, float stddev = 1.0f);
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);
  /// 1-D tensor with the given values.
  static Tensor from(std::vector<float> values);

  // ---- structure -------------------------------------------------------

  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return shape_.ndim(); }
  int64_t dim(int64_t i) const { return shape_.dim(i); }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  /// Same data, new shape; numel must be preserved.
  Tensor reshaped(Shape new_shape) const;

  /// Gives the tensor `shape` in place, keeping its storage: elements past
  /// the old size are left unset, and memory is reallocated only when the
  /// new size exceeds the capacity — for scratch buffers reused every step.
  Tensor& resize_(Shape shape);

  // ---- element access --------------------------------------------------

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return data_; }
  std::span<const float> span() const { return data_; }

  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// Bounds-checked 2-D accessor (matrix convention: row, col).
  float& at(int64_t r, int64_t c);
  float at(int64_t r, int64_t c) const;
  /// Bounds-checked 4-D accessor (NCHW convention).
  float& at(int64_t n, int64_t c, int64_t h, int64_t w);
  float at(int64_t n, int64_t c, int64_t h, int64_t w) const;

  // ---- in-place arithmetic ----------------------------------------------

  Tensor& fill_(float value);
  Tensor& zero_() { return fill_(0.0f); }
  Tensor& scale_(float alpha);
  /// this += alpha * other (shapes must match).
  Tensor& axpy_(float alpha, const Tensor& other);
  Tensor& add_(const Tensor& other) { return axpy_(1.0f, other); }
  Tensor& sub_(const Tensor& other) { return axpy_(-1.0f, other); }
  /// Elementwise product in place.
  Tensor& mul_(const Tensor& other);
  /// Elementwise: this = alpha*this + beta*other (running averages, Eq 16–17).
  Tensor& lerp_(float alpha, float beta, const Tensor& other);
  Tensor& add_scalar_(float value);
  Tensor& clamp_min_(float lo);

  // ---- value-returning arithmetic ---------------------------------------

  Tensor operator+(const Tensor& other) const;
  Tensor operator-(const Tensor& other) const;
  Tensor operator*(float alpha) const;

  // ---- reductions --------------------------------------------------------

  float sum() const;
  float mean() const;
  float max() const;
  float min() const;
  float abs_max() const;
  /// Euclidean norm of the flattened tensor.
  float norm() const;
  /// Sum of elementwise products with `other` (Frobenius inner product).
  float dot(const Tensor& other) const;

  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

 private:
  Shape shape_;
  // Cache-line-aligned so collectives and SIMD kernels slicing this
  // storage (the zero-copy dense fp32 factor path reduces it in place)
  // start from an aligned base.
  AlignedFloatVector data_;
};

/// True when every element differs by at most `atol + rtol*|b|`.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f, float atol = 1e-6f);

}  // namespace dkfac
