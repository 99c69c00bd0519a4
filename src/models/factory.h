// Model architectures.
//
// Scaled-down counterparts of the paper's networks (Tab. 6 / App. G.7):
//   * kSimpleNet — the default conv-GN-ReLU stack (SimpleNet style);
//   * kResNetSmall — residual blocks (ResNet-20/50 stand-in);
//   * kMlp — small fully-connected net (tests / MNIST-analog ablations).
// NormKind selects GroupNorm (the paper's robust default), BatchNorm (the
// Tab. 10 comparison) or no normalization.
#pragma once

#include <memory>
#include <string>

#include "nn/sequential.h"

namespace ber {

enum class Arch { kSimpleNet, kResNetSmall, kMlp };
enum class NormKind { kGroupNorm, kBatchNorm, kNone };

struct ModelConfig {
  Arch arch = Arch::kSimpleNet;
  NormKind norm = NormKind::kGroupNorm;
  int in_channels = 3;
  int image_size = 12;
  int num_classes = 10;
  int width = 12;  // base channel count (SimpleNet doubles it twice)
};

std::unique_ptr<Sequential> build_model(const ModelConfig& config);

}  // namespace ber
