// Training methods of the paper (Sec. 4 / Alg. 1).
//
//   NORMAL   — quantization-aware training with a given fixed-point scheme
//              (fake quantization: forward on dequantized quantized weights,
//              straight-through gradients, float master weights).
//   CLIPPING — NORMAL + projection of the master weights onto
//              [-wmax, wmax] every step (Sec. 4.2).
//   RANDBET  — CLIPPING + a second forward/backward pass on weights whose
//              quantized codes received random bit errors at rate p_train;
//              the update uses the SUM of clean and perturbed gradients
//              (Alg. 1 line 16). Injection starts once the clean loss drops
//              below a threshold (the paper's 1.75 / 3.5 gating). One chip
//              (error pattern) is sampled per EPOCH — a real chip's pattern
//              is fixed, so this is the hardware-faithful granularity — and
//              its sparse ChipFaultList is built once and reapplied per
//              batch (O(#faults) instead of an O(W*m) hash sweep per step).
//   PATTBET  — like RANDBET but with ONE fixed bit error pattern (chip seed)
//              for the whole training run — the co-design baseline of
//              Tab. 3 that fails to generalize.
//
// Variants (App. G.4): curricular RANDBET ramps p from p/20 to p over the
// epochs after activation; alternating RANDBET applies clean and perturbed
// gradients as two separate updates, with the perturbed update projected
// back onto the per-tensor weight range it started from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/augment.h"
#include "data/dataset.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "quant/quantizer.h"

namespace ber {

enum class Method { kNormal, kClipping, kRandBET, kPattBET };

struct TrainConfig {
  Method method = Method::kNormal;
  QuantScheme quant = QuantScheme::rquant();
  bool quant_aware = true;  // false = plain float training (Tab. 9 top)
  float wmax = 0.0f;        // 0 disables clipping
  double p_train = 0.0;     // bit error rate during training (fraction)
  float label_smoothing = 0.0f;
  float bit_error_loss_threshold = 1.75f;  // gate for RANDBET injection
  bool curricular = false;
  bool alternating = false;

  int epochs = 20;
  int batch_size = 100;
  int lr_warmup_epochs = 0;  // linear lr ramp over the first epochs
  SgdConfig sgd;  // lr 0.05, momentum 0.9, wd 5e-4 (paper defaults)
  AugmentConfig augment;
  std::uint64_t seed = 1;          // init + shuffling + per-step chips
  std::uint64_t pattern_seed = 42; // the fixed PATTBET chip
};

struct TrainStats {
  std::vector<float> epoch_loss;
  std::vector<float> epoch_train_err;
  float final_test_err = 0.0f;
  int bit_error_start_epoch = -1;  // first epoch with injection active
};

// Initializes (He) and trains `model` in place. The returned model carries
// float master weights; callers quantize for deployment/evaluation. Throws
// std::invalid_argument before any training for batch_size < 1 or an empty
// train or test set.
TrainStats train(Sequential& model, const Dataset& train_set,
                 const Dataset& test_set, const TrainConfig& config);

// Projects all parameters onto [-wmax, wmax] (no-op if wmax <= 0).
void clip_weights(const std::vector<Param*>& params, float wmax);

}  // namespace ber
