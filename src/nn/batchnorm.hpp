// Batch normalisation over NCHW channels.
//
// Not K-FAC-eligible — the paper's implementation preconditions only
// Linear and Conv2D layers; BatchNorm parameters take the plain optimizer
// update (§V). Training mode normalises with batch statistics and updates
// running estimates; eval mode uses the running estimates.
#pragma once

#include "nn/layer.hpp"

namespace dkfac::nn {

class BatchNorm2d final : public Layer {
 public:
  BatchNorm2d(int64_t channels, std::string name = "bn", float momentum = 0.1f,
              float epsilon = 1e-5f);

  Tensor forward(const Tensor& x) override;
  Tensor backward_impl(const Tensor& grad_output) override;

  std::vector<Parameter*> local_parameters() override { return {&gamma_, &beta_}; }
  std::string name() const override { return name_; }

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }

 private:
  int64_t channels_;
  std::string name_;
  float momentum_;
  float epsilon_;
  Parameter gamma_;  // scale, initialised to 1
  Parameter beta_;   // shift, initialised to 0
  Tensor running_mean_;
  Tensor running_var_;

  // State of the last training forward, kept for backward in reused
  // buffers; evaluation forwards leave it untouched.
  Shape input_shape_{0};
  Tensor xhat_;           // normalised input, input_shape_
  Tensor batch_inv_std_;  // [channels]
  bool has_batch_ = false;
};

}  // namespace dkfac::nn
