// Sequential container: composition, cloning, checkpoints, residual blocks.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/rng.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "serve/checkpoint.h"
#include "test_util.h"

namespace ber {
namespace {

using test::Mode;
using test::for_each_mode;
using test::kBackendModes;

Sequential make_tiny_net() {
  Sequential seq;
  seq.emplace<Conv2d>(1, 2, 3, 1, 1);
  seq.emplace<ReLU>();
  seq.emplace<MaxPool2d>(2);
  seq.emplace<Flatten>();
  seq.emplace<Linear>(2 * 2 * 2, 3);
  return seq;
}

TEST(SequentialTest, ForwardShape) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Sequential seq = make_tiny_net();
    Rng rng(1);
    he_init(seq, rng);
    Tensor y = seq.forward(Tensor::randn({4, 1, 4, 4}, rng), false);
    EXPECT_EQ(y.shape(), (std::vector<long>{4, 3}));
  });
}

TEST(SequentialTest, ParamsAggregated) {
  Sequential seq = make_tiny_net();
  // conv w+b, linear w+b
  EXPECT_EQ(seq.params().size(), 4u);
  EXPECT_GT(seq.num_weights(), 0);
  EXPECT_EQ(seq.num_weights(), 2 * 1 * 9 + 2 + 8 * 3 + 3);
}

TEST(SequentialTest, GradcheckWholeNet) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Sequential seq = make_tiny_net();
    Rng rng(2);
    he_init(seq, rng);
    Tensor x = Tensor::randn({2, 1, 4, 4}, rng);
    test::gradcheck_layer(seq, x, /*tol=*/3e-2);
  });
}

TEST(SequentialTest, CloneIsIndependent) {
  Sequential seq = make_tiny_net();
  Rng rng(3);
  he_init(seq, rng);
  Sequential copy(seq);
  const float before = copy.params()[0]->value[0];
  seq.params()[0]->value[0] += 100.0f;
  EXPECT_EQ(copy.params()[0]->value[0], before);
}

TEST(SequentialTest, CloneProducesSameOutputs) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Sequential seq = make_tiny_net();
    Rng rng(4);
    he_init(seq, rng);
    Sequential copy(seq);
    Tensor x = Tensor::randn({2, 1, 4, 4}, rng);
    Tensor y1 = seq.forward(x, false);
    Tensor y2 = copy.forward(x, false);
    for (long i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
  });
}

TEST(SequentialTest, BatchNormBuffersSurviveSaveLoad) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    const std::string path = testing::TempDir() + "/ber_model3.bin";
    Sequential seq;
    seq.emplace<Conv2d>(1, 2, 3, 1, 1);
    seq.emplace<BatchNorm2d>(2);
    Rng rng(7);
    he_init(seq, rng);
    // Drive running stats away from defaults.
    for (int i = 0; i < 10; ++i) {
      seq.forward(Tensor::randn({4, 1, 4, 4}, rng, 3.0f), true);
    }
    const float rm = (*seq.buffers()[0])[0];
    save_checkpoint(path, seq, QuantScheme::rquant(8));
    Sequential fresh;
    fresh.emplace<Conv2d>(1, 2, 3, 1, 1);
    fresh.emplace<BatchNorm2d>(2);
    load_checkpoint(path, fresh);
    EXPECT_EQ((*fresh.buffers()[0])[0], rm);
    std::remove(path.c_str());
  });
}

TEST(ResidualTest, ForwardAddsSkip) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Sequential body;
    body.emplace<Conv2d>(2, 2, 3, 1, 1);
    Residual res(std::move(body));
    // Zero body weights -> residual behaves as identity.
    for (Param* p : res.params()) p->value.zero();
    Rng rng(8);
    Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
    Tensor y = res.forward(x, false);
    for (long i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
  });
}

TEST(ResidualTest, Gradcheck) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Sequential body;
    body.emplace<Conv2d>(2, 2, 3, 1, 1);
    body.emplace<ReLU>();
    body.emplace<Conv2d>(2, 2, 3, 1, 1);
    Residual res(std::move(body));
    Rng rng(9);
    for (Param* p : res.params()) {
      for (long i = 0; i < p->value.numel(); ++i) {
        p->value[i] = rng.normal() * 0.3f;
      }
    }
    Tensor x = Tensor::randn({1, 2, 3, 3}, rng);
    test::gradcheck_layer(res, x, /*tol=*/3e-2);
  });
}

TEST(SequentialTest, VisitReachesNestedLayers) {
  Sequential seq;
  Sequential body;
  body.emplace<Conv2d>(2, 2, 3, 1, 1);
  body.emplace<ReLU>();
  seq.emplace<Residual>(std::move(body));
  seq.emplace<ReLU>();
  int relus = 0;
  seq.visit([&](Layer& l) {
    if (dynamic_cast<ReLU*>(&l) != nullptr) ++relus;
  });
  EXPECT_EQ(relus, 2);
}

TEST(SequentialTest, ZeroGradClearsAll) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Sequential seq = make_tiny_net();
    Rng rng(10);
    he_init(seq, rng);
    Tensor x = Tensor::randn({2, 1, 4, 4}, rng);
    Tensor y = seq.forward(x, true);
    seq.backward(Tensor::full(y.shape(), 1.0f));
    bool any_nonzero = false;
    for (Param* p : seq.params()) {
      for (long i = 0; i < p->grad.numel(); ++i) {
        if (p->grad[i] != 0.0f) any_nonzero = true;
      }
    }
    EXPECT_TRUE(any_nonzero);
    seq.zero_grad();
    for (Param* p : seq.params()) {
      for (long i = 0; i < p->grad.numel(); ++i) EXPECT_EQ(p->grad[i], 0.0f);
    }
  });
}

TEST(HeInit, ScalesWithFanIn) {
  Sequential seq;
  seq.emplace<Linear>(1000, 10);
  Rng rng(11);
  he_init(seq, rng);
  const Tensor& w = seq.params()[0]->value;
  double sq = 0.0;
  for (long i = 0; i < w.numel(); ++i) sq += static_cast<double>(w[i]) * w[i];
  const double std_measured = std::sqrt(sq / w.numel());
  EXPECT_NEAR(std_measured, std::sqrt(2.0 / 1000.0), 0.005);
  // Bias zero-initialized.
  EXPECT_EQ(seq.params()[1]->value.abs_max(), 0.0f);
}

}  // namespace
}  // namespace ber
