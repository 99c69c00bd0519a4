// Fully-connected layer.
#pragma once

#include <optional>

#include "nn/code_compute.h"
#include "nn/layer.h"
#include "quant/qweights.h"

namespace ber {

class Linear : public Layer, public CodeComputeLayer {
 public:
  Linear(long in_features, long out_features, bool bias = true);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Linear>(*this);
  }

  // Compute-on-codes (nn/code_compute.h): inference forwards run
  // backend.qgemm_bt over the stored codes with bias (and optionally the
  // following ReLU) fused into the writeback.
  void adopt_weight_codes(QuantizedTensor qt) override;
  void release_weight_codes() override { wcodes_.reset(); }
  bool code_compute_active() const override { return wcodes_.has_value(); }
  void patch_weight_code(std::size_t index, std::uint16_t code) override;
  Tensor forward_on_codes(const Tensor& x, bool fuse_relu) override;

  long in_features() const { return in_features_; }
  long out_features() const { return out_features_; }

  // Bytes held by the backward cache; inference forwards release it and
  // clones start without it.
  long cached_bytes() const {
    return static_cast<long>(sizeof(float)) * input_.numel();
  }

 private:
  long in_features_, out_features_;
  bool has_bias_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  BackwardCache<Tensor> input_;  // cached for backward
  // Weight code store when compute-on-codes is active (deep-copied by
  // clone(), so replicas patch independent codes).
  std::optional<QuantWeightStore> wcodes_;
};

}  // namespace ber
