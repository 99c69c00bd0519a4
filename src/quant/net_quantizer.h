// Whole-network quantization snapshots.
//
// The training loop and the evaluation harness both need to (a) quantize all
// parameters of a model, (b) optionally perturb the codes (bit errors), and
// (c) write the dequantized weights back into the model ("fake
// quantization", App. D: the forward pass runs in floating point on
// dequantized weights; weight updates happen on the float master copy).
#pragma once

#include <vector>

#include "nn/layer.h"
#include "quant/quantizer.h"

namespace ber {

// A quantized image of every parameter tensor of a network. `offsets` gives
// each tensor's first global weight index so bit-error coordinates (weight
// index, bit index) are stable across the whole net — this is the "linear
// weight-to-memory mapping" of Sec. 3.
struct NetSnapshot {
  std::vector<QuantizedTensor> tensors;
  std::vector<std::size_t> offsets;

  std::size_t total_weights() const {
    return tensors.empty()
               ? 0
               : offsets.back() + tensors.back().size();
  }
};

class NetQuantizer {
 public:
  explicit NetQuantizer(QuantScheme scheme) : scheme_(scheme) {}

  const QuantScheme& scheme() const { return scheme_; }

  // Quantizes all parameters. Per-tensor scope computes one range per
  // parameter tensor (the paper treats each layer's weights and biases
  // separately, like PyTorch); global scope computes a single range over the
  // concatenation of all parameters.
  NetSnapshot quantize(const std::vector<Param*>& params) const;

  // Dequantizes the snapshot into the parameter tensors (must be the same
  // parameter list, in order).
  void write_dequantized(const NetSnapshot& snap,
                         const std::vector<Param*>& params) const;

 private:
  QuantScheme scheme_;
};

// Saves/restores float master weights around fake-quantized passes.
class WeightStash {
 public:
  void save(const std::vector<Param*>& params);
  void restore(const std::vector<Param*>& params) const;

 private:
  std::vector<Tensor> saved_;
};

// ------------------------------------------------- snapshot deployment ---
//
// Deploying a (possibly faulted) snapshot into a model has two modes:
//   weight-space — dequantize every tensor into the float params (the
//     seed behaviour, write_dequantized);
//   compute-on-codes — hand each weight tensor's code words to its layer
//     (nn/code_compute.h) so inference runs the backend's quantized GEMM
//     directly over them; the float params become a dequantized mirror.
// ParamSlot pre-resolves, per snapshot tensor, the Param it deploys into
// and (for weight tensors of code-capable layers) the CodeComputeLayer —
// replicas cache the slot list so per-deploy work is O(#tensors), and
// delta deploys can patch single code words through it.

class Sequential;
class CodeComputeLayer;

struct ParamSlot {
  Param* param = nullptr;
  CodeComputeLayer* code_layer = nullptr;  // non-null only for weights of
                                           // code-capable layers
};

// The model's parameters in Sequential::params() order (asserted by
// construction: the walk recurses exactly like params() does), each paired
// with its owning layer's code-compute interface where applicable.
std::vector<ParamSlot> param_slots(Sequential& model);

// Writes `snap` into the model through the slots. on_codes=false matches
// write_dequantized and additionally DROPS any previously adopted codes —
// otherwise a stale code store would keep overriding the freshly written
// float weights at inference time. on_codes=true adopts weight codes into
// code-capable layers (refreshing their float mirrors) and dequantizes the
// rest (biases, norm params). There is no process-wide default: every
// caller (evaluator, planner, replica) states the mode it deploys in.
void deploy_snapshot(const NetSnapshot& snap,
                     const std::vector<ParamSlot>& slots, bool on_codes);

}  // namespace ber
