// Sequential container + residual block, with weight serialization.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace ber {

class BinaryReader;
class BinaryWriter;

class Sequential : public Layer {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  // Appends a layer; returns a reference typed as the concrete layer for
  // call-site configuration.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }
  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;

  // Per-layer activation observer for inference forwards: called once per
  // EXECUTED top-level layer with its index and output. When a ReLU is
  // fused into the preceding layer's code-compute epilogue, the observer
  // sees one call for the weight layer's (post-ReLU) output and none for
  // the skipped ReLU — the executed sequence, not the declared one.
  using ActivationObserver =
      std::function<void(std::size_t layer, const Layer& l, const Tensor& out)>;

  // Inference forward with activation capture (obs/forensics propagation
  // probes). Runs OUTSIDE the arena-tensor region, so observed tensors are
  // ordinary heap tensors the observer may copy from freely; probe batches
  // are small, steady-state allocation behavior doesn't apply here.
  Tensor forward_observed(const Tensor& x, const ActivationObserver& observer);
  std::vector<Param*> params() override;
  std::vector<Tensor*> buffers() override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  // Peak bytes of thread-local arena scratch (intermediate activations +
  // GEMM packing / column scratch), summed over both arena regions, during
  // the most recent outermost inference forward on this model. Inference
  // forwards bracket the layer loop in an arena-tensor region
  // (tensor/tensor.h), so this is also the proof knob for "no heap
  // allocation in steady-state eval": the arena converges to a fixed
  // capacity and this value stays constant across calls. Activation
  // lifetime: layer i's output lives until layer i+1 has consumed it, so
  // the peak is at most the two largest activations plus the largest
  // layer's own scratch (tested in tests/test_int8.cpp).
  std::size_t last_forward_arena_bytes() const {
    return last_forward_arena_bytes_;
  }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  // Applies fn to every layer, recursing into nested containers.
  void visit(const std::function<void(Layer&)>& fn);

  // Total number of learnable scalars (the paper's W).
  long num_weights();

  // Architecture signature used to validate checkpoints.
  std::string signature();

  // The signature + params + buffers payload of a checkpoint
  // (serve/checkpoint.h, the one model file format). read_weights requires
  // an identically-built architecture and throws on any mismatch.
  void write_weights(BinaryWriter& w);
  void read_weights(BinaryReader& r);

 private:
  // The layer loop. In inference mode, a layer with active weight codes
  // (nn/code_compute.h) runs forward_on_codes; when the next layer is a
  // ReLU, the activation is folded into the kernel epilogue and the ReLU
  // layer is skipped (its last_active_fraction() is then not refreshed).
  // A non-null observer sees every executed layer's output.
  // With `slots`, each executed layer runs in the arena region that held
  // the output of two layers back (the outermost inference forward).
  class ArenaPingPong;
  Tensor run_layers(const Tensor& x, bool training,
                    const ActivationObserver* observer = nullptr,
                    ArenaPingPong* slots = nullptr);

  std::vector<std::unique_ptr<Layer>> layers_;
  std::size_t last_forward_arena_bytes_ = 0;
};

// y = body(x) + x. Shapes must match (same channels / spatial size).
class Residual : public Layer {
 public:
  explicit Residual(Sequential body) : body_(std::move(body)) {}

  Tensor forward(const Tensor& x, bool training) override {
    Tensor y = body_.forward(x, training);
    y.axpy(1.0f, x);
    return y;
  }
  Tensor backward(const Tensor& grad_out) override {
    Tensor gi = body_.backward(grad_out);
    gi.axpy(1.0f, grad_out);
    return gi;
  }
  std::vector<Param*> params() override { return body_.params(); }
  std::vector<Tensor*> buffers() override { return body_.buffers(); }
  std::string name() const override { return "Residual(" + body_.name() + ")"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Residual>(*this);
  }
  Sequential& body() { return body_; }

 private:
  Sequential body_;
};

}  // namespace ber
