// Normalization layers.
//
// The paper (App. G.1) shows BatchNorm is markedly less robust to weight bit
// errors than GroupNorm, so GN is the default in all architectures; BN is
// kept for the Tab. 10 comparison, including the "batch statistics at test
// time" evaluation mode.
//
// Both layers use the App. E reparameterization: the learnable scale is
// stored as alpha' with effective scale gamma = 1 + alpha', so aggressive
// weight clipping (|alpha'| <= wmax < 1) cannot destroy the identity
// behaviour of the normalization.
#pragma once

#include "nn/layer.h"

namespace ber {

class GroupNorm : public Layer {
 public:
  GroupNorm(long groups, long channels, float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&scale_, &bias_}; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GroupNorm>(*this);
  }

 private:
  long groups_, channels_;
  float eps_;
  Param scale_;  // alpha' (effective gamma = 1 + alpha')
  Param bias_;
  // Backward caches.
  BackwardCache<Tensor> xhat_;
  BackwardCache<Tensor> inv_std_;  // [N, groups]
};

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(long channels, float eps = 1e-5f, float momentum = 0.1f);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&scale_, &bias_}; }
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<BatchNorm2d>(*this);
  }

  // Tab. 10 evaluation mode: when true, eval-mode forward uses the current
  // batch statistics instead of the accumulated running statistics.
  void set_use_batch_stats_in_eval(bool v) { use_batch_stats_in_eval_ = v; }
  bool use_batch_stats_in_eval() const { return use_batch_stats_in_eval_; }

 private:
  long channels_;
  float eps_, momentum_;
  bool use_batch_stats_in_eval_ = false;
  Param scale_;  // alpha' (effective gamma = 1 + alpha')
  Param bias_;
  Tensor running_mean_, running_var_;
  BackwardCache<Tensor> xhat_;
  BackwardCache<Tensor> inv_std_;  // [channels]
};

}  // namespace ber
