// Stateless shape/activation layers: ReLU and Flatten.
#pragma once

#include "nn/layer.h"

namespace ber {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }

  // Fraction of non-zero outputs in the last forward; feeds the "ReLU
  // relevance" redundancy metric (Fig. 10).
  double last_active_fraction() const { return last_active_fraction_; }

 private:
  BackwardCache<Tensor> mask_;  // 1 where x > 0
  double last_active_fraction_ = 0.0;
};

// Collapses [N, ...] to [N, features].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }

 private:
  BackwardCache<std::vector<long>> in_shape_;
};

}  // namespace ber
