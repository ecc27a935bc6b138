// Fully-connected layer with K-FAC factor capture.
#pragma once

#include <optional>

#include "nn/layer.hpp"

namespace dkfac::nn {

/// y = x·Wᵀ + b with x of shape [N, in_features].
///
/// K-FAC treats weight and bias jointly via the homogeneous-coordinate
/// trick: A is the covariance of [x, 1] (dim in+1) and the combined
/// gradient matrix is [out, in+1] with the bias gradient as last column.
class Linear final : public Layer, public KfacCapturable {
 public:
  Linear(int64_t in_features, int64_t out_features, bool bias, Rng& rng,
         std::string name = "linear");

  Tensor forward(const Tensor& x) override;
  Tensor backward_impl(const Tensor& grad_output) override;

  std::vector<Parameter*> local_parameters() override;
  std::string name() const override { return name_; }

  // KfacCapturable ----------------------------------------------------------
  Tensor kfac_a_factor() const override;
  Tensor kfac_g_factor() const override;
  Tensor kfac_grad() const override;
  void set_kfac_grad(const Tensor& grad) override;
  int64_t kfac_a_dim() const override { return in_features_ + (bias_ ? 1 : 0); }
  int64_t kfac_g_dim() const override { return out_features_; }
  std::string kfac_name() const override { return name_; }

  Parameter& weight() { return weight_; }
  Parameter* bias() { return bias_ ? &*bias_param_ : nullptr; }
  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool bias_;
  std::string name_;
  Parameter weight_;                      // [out, in]
  std::optional<Parameter> bias_param_;   // [out]

  // Batch state of the last training step (forward input, backward
  // output-grad); copies reuse the buffers' storage.
  Tensor input_;        // [N, in]
  Tensor grad_output_;  // [N, out]
  bool has_batch_ = false;
  bool has_grad_ = false;
};

}  // namespace dkfac::nn
