// Layer interface for the dkfac neural network library.
//
// Layers are stateful: a training-mode forward() caches whatever backward()
// and the K-FAC factors need (im2col patches, normalised inputs, masks) in
// buffers the layer reuses from step to step, so a layer instance appears
// exactly once in a network. An eval-mode forward keeps nothing and leaves
// that state as the last training step left it. Composite layers (Sequential, residual blocks) route gradients
// explicitly — there is no tape; the network topology *is* the autograd
// graph, mirroring how the original PyTorch implementation registers
// forward/backward hooks per layer (paper §IV-B).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace dkfac::nn {

class Layer;

/// Fired by Layer::backward the moment a layer (and all its children)
/// has finished accumulating gradients — the readiness signal the
/// overlapped communication pipeline keys off (Horovod's per-tensor
/// backward hooks, paper §IV-B).
using BackwardHook = std::function<void(Layer&)>;

/// A trainable tensor with its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string name, Tensor value)
      : name(std::move(name)), value(std::move(value)), grad(this->value.shape()) {}
};

/// Interface implemented by K-FAC-eligible layers (Linear, Conv2d). The
/// preconditioner talks to layers exclusively through this surface: it
/// reads the Kronecker factors and rewrites the combined gradient matrix.
/// All other layer types are ignored by K-FAC and updated normally by the
/// inner optimizer (paper §V).
class KfacCapturable {
 public:
  virtual ~KfacCapturable() = default;

  /// Factor A_{i-1}: mean outer product of this layer's (augmented) inputs
  /// from the most recent forward pass (Eq 5; KFC expansion for conv).
  /// Shape [a_dim, a_dim] where a_dim = fan-in (+1 when the layer has bias).
  virtual Tensor kfac_a_factor() const = 0;

  /// Factor G_i: mean outer product of per-sample gradients of the loss
  /// w.r.t. this layer's pre-activation outputs, from the most recent
  /// backward pass. Shape [g_dim, g_dim] where g_dim = fan-out.
  virtual Tensor kfac_g_factor() const = 0;

  /// Combined weight(+bias) gradient as a [g_dim, a_dim] matrix.
  virtual Tensor kfac_grad() const = 0;

  /// Writes a preconditioned [g_dim, a_dim] matrix back into the layer's
  /// weight (and bias) gradients.
  virtual void set_kfac_grad(const Tensor& grad) = 0;

  virtual int64_t kfac_a_dim() const = 0;
  virtual int64_t kfac_g_dim() const = 0;
  virtual std::string kfac_name() const = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes outputs; in training mode also caches anything backward()
  /// will need.
  virtual Tensor forward(const Tensor& x) = 0;

  /// Consumes dL/d(output), accumulates parameter gradients, and returns
  /// dL/d(input). Must be called after a training-mode forward() on the
  /// same batch.
  /// Non-virtual: runs backward_impl(), then fires the readiness hook so
  /// gradient communication can start while earlier layers still compute.
  Tensor backward(const Tensor& grad_output) {
    Tensor grad_input = backward_impl(grad_output);
    if (backward_hook_ && *backward_hook_) (*backward_hook_)(*this);
    return grad_input;
  }

  /// Installs `hook` on this layer and (recursively) every sublayer.
  /// Composite layers fire after their children, so hooks observe layers
  /// in completion order. Pass nullptr to clear.
  void set_backward_hook(std::shared_ptr<const BackwardHook> hook) {
    backward_hook_ = hook;
    for (Layer* child : children()) child->set_backward_hook(hook);
  }

  /// Directly-owned trainable parameters (not recursive).
  virtual std::vector<Parameter*> local_parameters() { return {}; }

  /// Directly-owned sublayers (not recursive).
  virtual std::vector<Layer*> children() { return {}; }

  virtual std::string name() const = 0;

  /// Switches train/eval behaviour (BatchNorm statistics) recursively.
  void set_training(bool training) {
    training_ = training;
    for (Layer* child : children()) child->set_training(training);
  }
  bool training() const { return training_; }

  // ---- recursive helpers --------------------------------------------------

  /// All parameters in definition order, depth first.
  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  /// All layers (self included), depth first.
  std::vector<Layer*> modules() {
    std::vector<Layer*> out;
    collect_modules(out);
    return out;
  }

  /// All K-FAC-eligible layers in definition order.
  std::vector<KfacCapturable*> kfac_layers() {
    std::vector<KfacCapturable*> out;
    for (Layer* m : modules()) {
      if (auto* k = dynamic_cast<KfacCapturable*>(m)) out.push_back(k);
    }
    return out;
  }

  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.zero_();
  }

  int64_t parameter_count() {
    int64_t total = 0;
    for (Parameter* p : parameters()) total += p->value.numel();
    return total;
  }

 protected:
  /// Layer-specific backward pass — see backward() for the contract.
  virtual Tensor backward_impl(const Tensor& grad_output) = 0;

 private:
  void collect_parameters(std::vector<Parameter*>& out) {
    for (Parameter* p : local_parameters()) out.push_back(p);
    for (Layer* child : children()) child->collect_parameters(out);
  }

  void collect_modules(std::vector<Layer*>& out) {
    out.push_back(this);
    for (Layer* child : children()) child->collect_modules(out);
  }

  bool training_ = true;
  std::shared_ptr<const BackwardHook> backward_hook_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace dkfac::nn
