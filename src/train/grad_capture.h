// Weight-gradient capture without an optimizer step.
//
// The trainer's backward pass accumulates d(loss)/d(weight) into Param::grad
// as a side effect of the update loop; the adversarial bit-flip attacker
// (src/attack/) needs exactly those gradients — of the task loss, evaluated
// at the *dequantized perturbed* weights — but must not touch the master
// weights, the accumulated gradients or the normalization buffers of the
// model it is attacking. capture_weight_gradients() packages the trainer's
// fake-quantized forward/backward (trainer.cpp quantized_pass) into a
// side-effect-free probe: weights, gradients and buffers are saved and
// restored around the pass, and the gradients are returned by value.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "nn/sequential.h"
#include "quant/net_quantizer.h"

namespace ber {

struct GradCapture {
  float loss = 0.0f;          // mean cross-entropy over `data`
  std::vector<Tensor> grads;  // d(mean loss)/d(weight), one per param
};

// Writes `snap`'s dequantized weights into `model`, runs forward/backward
// over all of `data` in chunks of `batch`, and returns the mean-loss weight
// gradients. The model is restored to its prior state (master weights,
// gradient accumulators, norm buffers) before returning. Throws
// std::invalid_argument for an empty `data` or `batch` < 1.
GradCapture capture_weight_gradients(Sequential& model,
                                     const NetQuantizer& quantizer,
                                     const NetSnapshot& snap,
                                     const Dataset& data, long batch = 256);

}  // namespace ber
