// Spatial pooling layers.
#pragma once

#include "nn/layer.h"

namespace ber {

// Non-overlapping max pooling (kernel == stride), the paper's "Pool".
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(long kernel) : kernel_(kernel) {}

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(*this);
  }

 private:
  long kernel_;
  BackwardCache<std::vector<long>> in_shape_;
  BackwardCache<std::vector<long>> argmax_;  // flat input index per output
};

// Global average pooling: [N,C,H,W] -> [N,C].
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "GlobalAvgPool"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GlobalAvgPool>(*this);
  }

 private:
  BackwardCache<std::vector<long>> in_shape_;
};

}  // namespace ber
