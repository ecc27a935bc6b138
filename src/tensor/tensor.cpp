#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dkfac {

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(values.begin(), values.end()) {
  DKFAC_CHECK(static_cast<int64_t>(data_.size()) == shape_.numel())
      << "value count " << data_.size() << " does not match shape " << shape_;
}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.resize_(std::move(shape));
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::eye(int64_t n) {
  DKFAC_CHECK(n >= 0);
  Tensor t(Shape{n, n});
  for (int64_t i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  rng.fill_normal(t.span(), mean, stddev);
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t.span(), lo, hi);
  return t;
}

Tensor Tensor::from(std::vector<float> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return Tensor(Shape{n}, std::move(values));
}

Tensor& Tensor::resize_(Shape shape) {
  data_.resize(static_cast<size_t>(shape.numel()));
  shape_ = std::move(shape);
  return *this;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  DKFAC_CHECK(new_shape.numel() == numel())
      << "cannot reshape " << shape_ << " (numel " << numel() << ") to "
      << new_shape << " (numel " << new_shape.numel() << ")";
  Tensor out = *this;
  out.shape_ = std::move(new_shape);
  return out;
}

float& Tensor::at(int64_t r, int64_t c) {
  DKFAC_CHECK(ndim() == 2) << "2-D accessor on tensor of shape " << shape_;
  DKFAC_CHECK(r >= 0 && r < dim(0) && c >= 0 && c < dim(1))
      << "index (" << r << ", " << c << ") out of range for " << shape_;
  return data_[static_cast<size_t>(r * dim(1) + c)];
}

float Tensor::at(int64_t r, int64_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

float& Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w) {
  DKFAC_CHECK(ndim() == 4) << "4-D accessor on tensor of shape " << shape_;
  DKFAC_CHECK(n >= 0 && n < dim(0) && c >= 0 && c < dim(1) && h >= 0 &&
              h < dim(2) && w >= 0 && w < dim(3))
      << "index (" << n << ", " << c << ", " << h << ", " << w
      << ") out of range for " << shape_;
  return data_[static_cast<size_t>(((n * dim(1) + c) * dim(2) + h) * dim(3) + w)];
}

float Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w) const {
  return const_cast<Tensor*>(this)->at(n, c, h, w);
}

Tensor& Tensor::fill_(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

Tensor& Tensor::scale_(float alpha) {
  for (float& v : data_) v *= alpha;
  return *this;
}

Tensor& Tensor::axpy_(float alpha, const Tensor& other) {
  DKFAC_CHECK(shape_ == other.shape_)
      << "axpy_ shape mismatch " << shape_ << " vs " << other.shape_;
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  DKFAC_CHECK(shape_ == other.shape_)
      << "mul_ shape mismatch " << shape_ << " vs " << other.shape_;
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::lerp_(float alpha, float beta, const Tensor& other) {
  DKFAC_CHECK(shape_ == other.shape_)
      << "lerp_ shape mismatch " << shape_ << " vs " << other.shape_;
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] = alpha * data_[i] + beta * other.data_[i];
  }
  return *this;
}

Tensor& Tensor::add_scalar_(float value) {
  for (float& v : data_) v += value;
  return *this;
}

Tensor& Tensor::clamp_min_(float lo) {
  for (float& v : data_) v = std::max(v, lo);
  return *this;
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out = *this;
  out.add_(other);
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  Tensor out = *this;
  out.sub_(other);
  return out;
}

Tensor Tensor::operator*(float alpha) const {
  Tensor out = *this;
  out.scale_(alpha);
  return out;
}

float Tensor::sum() const {
  // Kahan summation keeps large-tensor reductions stable in FP32.
  float total = 0.0f;
  float carry = 0.0f;
  for (float v : data_) {
    const float y = v - carry;
    const float t = total + y;
    carry = (t - total) - y;
    total = t;
  }
  return total;
}

float Tensor::mean() const {
  DKFAC_CHECK(!data_.empty()) << "mean of empty tensor";
  return sum() / static_cast<float>(data_.size());
}

float Tensor::max() const {
  DKFAC_CHECK(!data_.empty()) << "max of empty tensor";
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  DKFAC_CHECK(!data_.empty()) << "min of empty tensor";
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

float Tensor::norm() const {
  // Accumulate in double: gradient norms feed the KL clip (Eq 18) and must
  // not underflow/overflow in FP32 for large parameter counts.
  double total = 0.0;
  for (float v : data_) total += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(total));
}

float Tensor::dot(const Tensor& other) const {
  DKFAC_CHECK(shape_ == other.shape_)
      << "dot shape mismatch " << shape_ << " vs " << other.shape_;
  double total = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    total += static_cast<double>(data_[i]) * other.data_[i];
  }
  return static_cast<float>(total);
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float tol = atol + rtol * std::abs(b[i]);
    if (std::abs(a[i] - b[i]) > tol) return false;
    if (std::isnan(a[i]) != std::isnan(b[i])) return false;
  }
  return true;
}

}  // namespace dkfac
