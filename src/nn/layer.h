// Layer abstraction for the training framework.
//
// Layers own their parameters (value + gradient) and expose them through
// Param so that the quantization / bit-injection machinery can snapshot,
// perturb and restore them without knowing layer internals. ParamKind lets
// policies treat normalization parameters differently (e.g. the GN/BN scale
// reparameterization of App. E interacts with weight clipping).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ber {

enum class ParamKind { kWeight, kBias, kNormScale, kNormBias };

struct Param {
  std::string name;
  ParamKind kind = ParamKind::kWeight;
  Tensor value;
  Tensor grad;
};

// A backward cache member (the input, mask or statistics a training
// forward keeps for backward). Copying the owning layer leaves the copy's
// cache empty, so clone() never carries a trained model's stale activations
// into evaluator workers or serving replicas; backward on such a copy
// reports that no forward pass is cached.
template <typename T>
struct BackwardCache : T {
  BackwardCache() = default;
  BackwardCache(const BackwardCache&) : T() {}
  BackwardCache(BackwardCache&&) noexcept = default;
  BackwardCache& operator=(const BackwardCache&) {
    static_cast<T&>(*this) = T();
    return *this;
  }
  BackwardCache& operator=(BackwardCache&&) noexcept = default;
  using T::operator=;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Computes the layer output; `training` selects train-time behaviour
  // (batch statistics, caching for backward).
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  // Consumes d(loss)/d(output), accumulates parameter gradients (+=) and
  // returns d(loss)/d(input). Must be called after a training-mode forward.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Learnable parameters (empty for stateless layers). Pointers remain valid
  // for the lifetime of the layer.
  virtual std::vector<Param*> params() { return {}; }

  // Non-learnable state that must survive serialization (e.g. BatchNorm
  // running statistics).
  virtual std::vector<Tensor*> buffers() { return {}; }

  virtual std::string name() const = 0;

  // Deep copy; used for parallel evaluation across bit-error "chips".
  virtual std::unique_ptr<Layer> clone() const = 0;

  void zero_grad() {
    for (Param* p : params()) p->grad.zero();
  }
};

}  // namespace ber
