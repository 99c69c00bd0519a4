#include "models/factory.h"

#include <stdexcept>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"

namespace ber {

namespace {

// Largest group count <= 4 that divides `channels`.
long gn_groups(long channels) {
  for (long g = 4; g >= 1; --g) {
    if (channels % g == 0) return g;
  }
  return 1;
}

void add_norm(Sequential& seq, NormKind norm, long channels) {
  switch (norm) {
    case NormKind::kGroupNorm:
      seq.emplace<GroupNorm>(gn_groups(channels), channels);
      break;
    case NormKind::kBatchNorm:
      seq.emplace<BatchNorm2d>(channels);
      break;
    case NormKind::kNone:
      break;
  }
}

void add_conv_block(Sequential& seq, NormKind norm, long in, long out) {
  seq.emplace<Conv2d>(in, out, 3, 1, 1);
  add_norm(seq, norm, out);
  seq.emplace<ReLU>();
}

std::unique_ptr<Sequential> build_simplenet(const ModelConfig& c) {
  if (c.image_size % 4 != 0) {
    throw std::invalid_argument("SimpleNet: image_size must be divisible by 4");
  }
  auto model = std::make_unique<Sequential>();
  const long w1 = c.width, w2 = 2 * c.width, w3 = 4 * c.width;
  add_conv_block(*model, c.norm, c.in_channels, w1);
  add_conv_block(*model, c.norm, w1, w1);
  model->emplace<MaxPool2d>(2);
  add_conv_block(*model, c.norm, w1, w2);
  add_conv_block(*model, c.norm, w2, w2);
  model->emplace<MaxPool2d>(2);
  add_conv_block(*model, c.norm, w2, w3);
  model->emplace<GlobalAvgPool>();
  model->emplace<Linear>(w3, c.num_classes);
  return model;
}

Sequential make_res_body(NormKind norm, long channels) {
  Sequential body;
  body.emplace<Conv2d>(channels, channels, 3, 1, 1);
  add_norm(body, norm, channels);
  body.emplace<ReLU>();
  body.emplace<Conv2d>(channels, channels, 3, 1, 1);
  add_norm(body, norm, channels);
  return body;
}

std::unique_ptr<Sequential> build_resnet_small(const ModelConfig& c) {
  auto model = std::make_unique<Sequential>();
  const long w1 = c.width + 4;  // 16 for the default width 12
  add_conv_block(*model, c.norm, c.in_channels, w1);
  model->emplace<Residual>(make_res_body(c.norm, w1));
  model->emplace<ReLU>();
  model->emplace<MaxPool2d>(2);
  model->emplace<Residual>(make_res_body(c.norm, w1));
  model->emplace<ReLU>();
  model->emplace<MaxPool2d>(2);
  add_conv_block(*model, c.norm, w1, 2 * w1);
  model->emplace<GlobalAvgPool>();
  model->emplace<Linear>(2 * w1, c.num_classes);
  return model;
}

std::unique_ptr<Sequential> build_mlp(const ModelConfig& c) {
  auto model = std::make_unique<Sequential>();
  const long in = static_cast<long>(c.in_channels) * c.image_size * c.image_size;
  model->emplace<Flatten>();
  model->emplace<Linear>(in, 8 * c.width);
  model->emplace<ReLU>();
  model->emplace<Linear>(8 * c.width, 4 * c.width);
  model->emplace<ReLU>();
  model->emplace<Linear>(4 * c.width, c.num_classes);
  return model;
}

}  // namespace

std::unique_ptr<Sequential> build_model(const ModelConfig& config) {
  switch (config.arch) {
    case Arch::kSimpleNet:
      return build_simplenet(config);
    case Arch::kResNetSmall:
      return build_resnet_small(config);
    case Arch::kMlp:
      return build_mlp(config);
  }
  throw std::invalid_argument("build_model: unknown arch");
}

}  // namespace ber
