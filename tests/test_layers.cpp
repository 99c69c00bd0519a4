// Gradient checks and behavioural tests for all basic layers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "kernels/backend.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"
#include "test_util.h"

namespace ber {
namespace {

using test::Mode;
using test::backward_step;
using test::expect_thread_invariant;
using test::for_each_mode;
using test::gradcheck_layer;
using test::kBackendModes;
using test::same_step;
using test::train_step;

Tensor rand_input(std::vector<long> shape, std::uint64_t seed = 1) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

void rand_params(Layer& layer, std::uint64_t seed = 2) {
  Rng rng(seed);
  for (Param* p : layer.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = rng.normal() * 0.4f;
    }
  }
}

TEST(Conv2d, ForwardShape) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Conv2d conv(3, 8, 3, 1, 1);
    Tensor y = conv.forward(rand_input({2, 3, 12, 12}), false);
    EXPECT_EQ(y.shape(), (std::vector<long>{2, 8, 12, 12}));
  });
}

TEST(Conv2d, NoPadShrinks) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Conv2d conv(1, 2, 3, 1, 0);
    Tensor y = conv.forward(rand_input({1, 1, 5, 5}), false);
    EXPECT_EQ(y.shape(), (std::vector<long>{1, 2, 3, 3}));
  });
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Conv2d conv(3, 4, 3);
  EXPECT_THROW(conv.forward(rand_input({1, 2, 8, 8}), false),
               std::invalid_argument);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Conv2d conv(1, 1, 3, 1, 1);
    for (Param* p : conv.params()) p->value.zero();
    conv.params()[0]->value.at(0, 0, 1, 1) = 1.0f;  // center tap
    Tensor x = rand_input({1, 1, 6, 6});
    Tensor y = conv.forward(x, false);
    for (long i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
  });
}

TEST(Conv2d, BiasAddsConstant) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Conv2d conv(1, 1, 3, 1, 1);
    for (Param* p : conv.params()) p->value.zero();
    conv.params()[1]->value[0] = 2.5f;
    Tensor y = conv.forward(Tensor::zeros({1, 1, 4, 4}), false);
    for (long i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 2.5f);
  });
}

TEST(Conv2d, Gradcheck) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Conv2d conv(2, 3, 3, 1, 1);
    rand_params(conv);
    gradcheck_layer(conv, rand_input({2, 2, 5, 5}));
  });
}

TEST(Conv2d, GradcheckStride2NoBias) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Conv2d conv(2, 2, 2, 2, 0, /*bias=*/false);
    rand_params(conv);
    EXPECT_EQ(conv.params().size(), 1u);
    gradcheck_layer(conv, rand_input({1, 2, 4, 4}));
  });
}

TEST(Linear, ForwardKnownValues) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Linear lin(2, 2);
    lin.params()[0]->value = Tensor::from_data({2, 2}, {1, 2, 3, 4});
    lin.params()[1]->value = Tensor::from_data({2}, {10, 20});
    Tensor y = lin.forward(Tensor::from_data({1, 2}, {1, 1}), false);
    EXPECT_EQ(y.at(0, 0), 13.0f);  // 1+2+10
    EXPECT_EQ(y.at(0, 1), 27.0f);  // 3+4+20
  });
}

TEST(Linear, Gradcheck) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Linear lin(6, 4);
    rand_params(lin);
    gradcheck_layer(lin, rand_input({3, 6}));
  });
}

TEST(Linear, RejectsWrongWidth) {
  Linear lin(4, 2);
  EXPECT_THROW(lin.forward(rand_input({1, 3}), false), std::invalid_argument);
}

TEST(ReLUTest, ClampsNegatives) {
  ReLU relu;
  Tensor y = relu.forward(Tensor::from_data({4}, {-1, 0, 2, -3}), false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_NEAR(relu.last_active_fraction(), 0.25, 1e-9);
}

TEST(ReLUTest, Gradcheck) {
  ReLU relu;
  // Keep inputs away from the kink for finite differences.
  Tensor x = rand_input({2, 5});
  for (long i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] = 0.2f;
  }
  gradcheck_layer(relu, x);
}

TEST(FlattenTest, RoundTrip) {
  Flatten f;
  Tensor x = rand_input({2, 3, 4, 4});
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<long>{2, 48}));
  Tensor gi = f.backward(y);
  EXPECT_EQ(gi.shape(), x.shape());
}

TEST(MaxPool, ForwardSelectsMax) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 5, 3, 2});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 5.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 5, 3, 2});
  pool.forward(x, true);
  Tensor gi = pool.backward(Tensor::from_data({1, 1, 1, 1}, {7}));
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 7.0f);
}

TEST(MaxPool, Gradcheck) {
  MaxPool2d pool(2);
  // Randomized inputs with distinct values avoid argmax ties.
  Tensor x = rand_input({2, 2, 4, 4}, 33);
  gradcheck_layer(pool, x);
}

TEST(MaxPool, RejectsIndivisible) {
  MaxPool2d pool(2);
  EXPECT_THROW(pool.forward(rand_input({1, 1, 5, 5}), false),
               std::invalid_argument);
}

TEST(GlobalAvgPoolTest, ForwardAverages) {
  GlobalAvgPool gap;
  Tensor x = Tensor::from_data({1, 2, 1, 2}, {1, 3, 10, 20});
  Tensor y = gap.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<long>{1, 2}));
  EXPECT_EQ(y.at(0, 0), 2.0f);
  EXPECT_EQ(y.at(0, 1), 15.0f);
}

TEST(GlobalAvgPoolTest, Gradcheck) {
  GlobalAvgPool gap;
  gradcheck_layer(gap, rand_input({2, 3, 4, 4}));
}

TEST(Layers, CloneIsDeep) {
  Conv2d conv(1, 1, 3);
  rand_params(conv);
  auto copy = conv.clone();
  conv.params()[0]->value[0] = 1234.0f;
  EXPECT_NE(copy->params()[0]->value[0], 1234.0f);
}

// ------------------------------------------- training-cache lifetime ---

// An inference forward between a training forward and its backward must
// not touch what backward reads, even at another batch size.
void expect_inference_keeps_cache(Layer& layer, std::vector<long> train_shape,
                                  std::vector<long> infer_shape) {
  const Tensor x = rand_input(train_shape, 7);
  const test::LayerStep plain = train_step(layer, x);
  layer.zero_grad();
  const Tensor y = layer.forward(x, /*training=*/true);
  layer.forward(rand_input(infer_shape, 8), /*training=*/false);
  EXPECT_TRUE(same_step(backward_step(layer, y), plain)) << layer.name();
}

TEST(Layers, InferenceForwardKeepsTrainingCache) {
  ReLU relu;
  expect_inference_keeps_cache(relu, {2, 3, 4, 4}, {4, 3, 4, 4});
  MaxPool2d pool(2);
  expect_inference_keeps_cache(pool, {2, 3, 4, 4}, {4, 3, 4, 4});
  GlobalAvgPool gap;
  expect_inference_keeps_cache(gap, {2, 3, 4, 4}, {4, 3, 4, 4});
  GroupNorm gn(2, 4);
  rand_params(gn);
  expect_inference_keeps_cache(gn, {2, 4, 4, 4}, {4, 4, 4, 4});
}

TEST(Layers, BackwardWithoutTrainingForwardThrows) {
  const Tensor x = rand_input({2, 4, 4, 4});
  const Tensor go4 = rand_input({2, 4, 4, 4});
  ReLU relu;
  EXPECT_THROW(relu.backward(go4), std::logic_error);
  MaxPool2d pool(2);
  EXPECT_THROW(pool.backward(rand_input({2, 4, 2, 2})), std::logic_error);
  GlobalAvgPool gap;
  EXPECT_THROW(gap.backward(rand_input({2, 4})), std::logic_error);
  GroupNorm gn(2, 4);
  EXPECT_THROW(gn.backward(go4), std::logic_error);
  Conv2d conv(4, 4, 3, 1, 1);
  EXPECT_THROW(conv.backward(go4), std::logic_error);
  // An inference forward alone caches nothing for backward either.
  relu.forward(x, false);
  EXPECT_THROW(relu.backward(go4), std::logic_error);
  pool.forward(x, false);
  EXPECT_THROW(pool.backward(rand_input({2, 4, 2, 2})), std::logic_error);
  gap.forward(x, false);
  EXPECT_THROW(gap.backward(rand_input({2, 4})), std::logic_error);
  gn.forward(x, false);
  EXPECT_THROW(gn.backward(go4), std::logic_error);
  // A cached forward of another batch size rejects the gradient.
  pool.forward(x, true);
  EXPECT_THROW(pool.backward(rand_input({4, 4, 2, 2})), std::invalid_argument);
}

// ------------------------------------------------- thread invariance ---

TEST(Layers, TrainingStepBitIdenticalAcrossThreadCounts) {
  // 8 x 16 x 32 x 32 = 131072 floats: above kIntraOpMinFloats, so every
  // per-image / per-chunk loop splits when more than one thread is asked.
  const Tensor x = rand_input({8, 16, 32, 32}, 41);
  {
    const kernels::ScopedBackend blocked(kernels::backend("blocked"));
    Conv2d conv(16, 16, 3, 1, 1);  // coalesced lowering, stride-1 rows
    rand_params(conv);
    expect_thread_invariant(conv, x);
    Conv2d strided(16, 8, 3, 2, 1);  // the general strided rows
    rand_params(strided);
    expect_thread_invariant(strided, x);
  }
  ReLU relu;
  expect_thread_invariant(relu, x);
  MaxPool2d pool(2);
  expect_thread_invariant(pool, x);
}

}  // namespace
}  // namespace ber
