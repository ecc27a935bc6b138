// Sequential container: forward chains children, backward runs in reverse.
#pragma once

#include <algorithm>
#include <utility>

#include "nn/layer.hpp"

namespace dkfac::nn {

class Sequential final : public Layer {
 public:
  explicit Sequential(std::string name = "seq") : name_(std::move(name)) {}

  /// Appends a layer; returns a reference for inline construction.
  Sequential& add(LayerPtr layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  // Neither pass copies: the first child reads the caller's tensor.
  Tensor forward(const Tensor& x) override {
    if (layers_.empty()) return x;
    Tensor h = layers_.front()->forward(x);
    for (auto it = layers_.begin() + 1; it != layers_.end(); ++it) {
      h = (*it)->forward(h);
    }
    return h;
  }

  Tensor backward_impl(const Tensor& grad_output) override {
    if (layers_.empty()) return grad_output;
    Tensor g = layers_.back()->backward(grad_output);
    for (auto it = layers_.rbegin() + 1; it != layers_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }

  std::vector<Layer*> children() override {
    std::vector<Layer*> out;
    out.reserve(layers_.size());
    for (auto& l : layers_) out.push_back(l.get());
    return out;
  }

  std::string name() const override { return name_; }
  size_t size() const { return layers_.size(); }

 private:
  std::string name_;
  std::vector<LayerPtr> layers_;
};

/// Flattens [N, ...] to [N, prod(...)]; restores shape on backward.
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}

  Tensor forward(const Tensor& x) override {
    input_shape_ = x.shape();
    const int64_t n = x.dim(0);
    return x.reshaped(Shape{n, x.numel() / std::max<int64_t>(n, 1)});
  }

  Tensor backward_impl(const Tensor& grad_output) override {
    return grad_output.reshaped(input_shape_);
  }

  std::string name() const override { return name_; }

 private:
  std::string name_;
  Shape input_shape_{0};
};

}  // namespace dkfac::nn
