// Model factory tests: shapes, parameter counts, norm selection (Tab. 6
// inventory equivalents).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/rng.h"
#include "models/factory.h"
#include "nn/init.h"
#include "nn/norm.h"
#include "test_util.h"

namespace ber {
namespace {

using test::Mode;
using test::for_each_mode;
using test::kBackendModes;

TEST(Models, SimpleNetForwardShape) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    auto model = build_model(mc);
    Rng rng(1);
    he_init(*model, rng);
    Tensor y = model->forward(Tensor::randn({2, 3, 12, 12}, rng), false);
    EXPECT_EQ(y.shape(), (std::vector<long>{2, 10}));
  });
}

// A clone carries no backward cache: backward on it reports the missing
// forward pass, while its inference output equals the original's.
TEST(Models, CloneAfterTrainingForwardDropsBackwardCaches) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    auto model = build_model(mc);
    Rng rng(3);
    he_init(*model, rng);
    const Tensor x = Tensor::randn({2, 3, 12, 12}, rng);
    const Tensor y_train = model->forward(x, true);
    Sequential clone(*model);
    try {
      clone.backward(Tensor::full(y_train.shape(), 0.1f));
      ADD_FAILURE() << "backward on a clone must throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("no cached forward pass"),
                std::string::npos)
          << e.what();
    }
    const Tensor y = model->forward(x, false);
    const Tensor y_clone = clone.forward(x, false);
    ASSERT_EQ(y.shape(), y_clone.shape());
    for (long i = 0; i < y.numel(); ++i) ASSERT_EQ(y[i], y_clone[i]);
  });
}

TEST(Models, SimpleNetRejectsBadImageSize) {
  ModelConfig mc;
  mc.image_size = 10;  // not divisible by 4
  EXPECT_THROW(build_model(mc), std::invalid_argument);
}

TEST(Models, ResNetForwardShape) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    mc.arch = Arch::kResNetSmall;
    auto model = build_model(mc);
    Rng rng(2);
    he_init(*model, rng);
    Tensor y = model->forward(Tensor::randn({2, 3, 12, 12}, rng), false);
    EXPECT_EQ(y.shape(), (std::vector<long>{2, 10}));
  });
}

TEST(Models, MlpForwardShape) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    mc.arch = Arch::kMlp;
    mc.in_channels = 1;
    auto model = build_model(mc);
    Rng rng(3);
    he_init(*model, rng);
    Tensor y = model->forward(Tensor::randn({4, 1, 12, 12}, rng), false);
    EXPECT_EQ(y.shape(), (std::vector<long>{4, 10}));
  });
}

TEST(Models, WeightCountsScaleWithWidth) {
  ModelConfig narrow, wide;
  narrow.width = 8;
  wide.width = 16;
  auto a = build_model(narrow);
  auto b = build_model(wide);
  EXPECT_GT(b->num_weights(), 2 * a->num_weights());
}

TEST(Models, NormKindSelectsLayers) {
  ModelConfig gn, bn, none;
  gn.norm = NormKind::kGroupNorm;
  bn.norm = NormKind::kBatchNorm;
  none.norm = NormKind::kNone;
  auto count_layers = [](Sequential& m, auto pred) {
    int n = 0;
    m.visit([&](Layer& l) {
      if (pred(l)) ++n;
    });
    return n;
  };
  auto gm = build_model(gn);
  auto bm = build_model(bn);
  auto nm = build_model(none);
  EXPECT_GT(count_layers(*gm, [](Layer& l) {
    return dynamic_cast<GroupNorm*>(&l) != nullptr;
  }), 0);
  EXPECT_GT(count_layers(*bm, [](Layer& l) {
    return dynamic_cast<BatchNorm2d*>(&l) != nullptr;
  }), 0);
  EXPECT_EQ(count_layers(*nm, [](Layer& l) {
    return dynamic_cast<GroupNorm*>(&l) != nullptr ||
           dynamic_cast<BatchNorm2d*>(&l) != nullptr;
  }), 0);
}

TEST(Models, SignaturesDistinguishArchitectures) {
  ModelConfig a, b;
  b.arch = Arch::kResNetSmall;
  auto ma = build_model(a);
  auto mb = build_model(b);
  EXPECT_NE(ma->signature(), mb->signature());
}

TEST(Models, GrayscaleInput) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    mc.in_channels = 1;
    auto model = build_model(mc);
    Rng rng(4);
    he_init(*model, rng);
    Tensor y = model->forward(Tensor::randn({1, 1, 12, 12}, rng), false);
    EXPECT_EQ(y.shape(), (std::vector<long>{1, 10}));
  });
}

TEST(Models, TwentyClassHead) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    mc.num_classes = 20;
    auto model = build_model(mc);
    Rng rng(5);
    he_init(*model, rng);
    Tensor y = model->forward(Tensor::randn({1, 3, 12, 12}, rng), false);
    EXPECT_EQ(y.shape(1), 20);
  });
}

}  // namespace
}  // namespace ber
