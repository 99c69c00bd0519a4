// Trainer tests: convergence, clipping projection, RANDBET gating and
// variants, PATTBET determinism, post-training (non-QAT) path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "data/shapes.h"
#include "kernels/backend.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "train/trainer.h"

namespace ber {
namespace {

using test::Mode;
using test::for_each_mode;
using test::kBackendModes;

// Tiny task fixture shared across trainer tests: small dataset, small MLP,
// few epochs — fast but enough signal for loss to drop well below chance.
struct Tiny {
  SyntheticConfig data_cfg;
  Dataset train_set, test_set;
  ModelConfig model_cfg;

  Tiny() {
    data_cfg = SyntheticConfig::mnist();
    data_cfg.n_train = 300;
    data_cfg.n_test = 150;
    train_set = make_synthetic(data_cfg, true);
    test_set = make_synthetic(data_cfg, false);
    model_cfg.arch = Arch::kMlp;
    model_cfg.in_channels = 1;
    model_cfg.width = 8;
  }

  TrainConfig base_train() const {
    TrainConfig tc;
    tc.epochs = 18;
    tc.batch_size = 50;
    tc.sgd.lr = 0.1f;  // small MLP converges faster with a higher base lr
    tc.augment.max_shift = 1;
    tc.augment.cutout = 0;
    tc.augment.noise_std = 0.0f;
    return tc;
  }
};

TEST(Trainer, LossDecreases) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    const TrainStats stats =
        train(*model, t.train_set, t.test_set, t.base_train());
    ASSERT_EQ(stats.epoch_loss.size(), 18u);
    EXPECT_LT(stats.epoch_loss.back(), 0.6f * stats.epoch_loss.front());
    EXPECT_LT(stats.final_test_err, 0.5f);  // well below 90% chance error
  });
}

TEST(Trainer, DeterministicForSeed) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto m1 = build_model(t.model_cfg);
    auto m2 = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.epochs = 3;
    const TrainStats s1 = train(*m1, t.train_set, t.test_set, tc);
    const TrainStats s2 = train(*m2, t.train_set, t.test_set, tc);
    EXPECT_EQ(s1.epoch_loss, s2.epoch_loss);
    EXPECT_EQ(s1.final_test_err, s2.final_test_err);
  });
}

// data.batches_produced counts one gathered batch per step (the CI shard
// gate and the benchmark's per-layer read rely on it), the last batch of an
// epoch being the short remainder; batch_size < 1 is rejected up front.
TEST(Trainer, CountsGatheredBatchesAndRejectsEmptyBatches) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.epochs = 2;
    tc.batch_size = 40;  // 300 records: 7 full batches + one of 20
    obs::Counter& batches = obs::registry().counter("data.batches_produced");
    const std::uint64_t before = batches.value();
    train(*model, t.train_set, t.test_set, tc);
    EXPECT_EQ(batches.value() - before, 16u);

    tc.batch_size = 0;
    EXPECT_THROW(train(*model, t.train_set, t.test_set, tc),
                 std::invalid_argument);
  });
}

// Empty training or test sets are rejected before the first batch: an empty
// training set would average the epoch loss over zero examples (NaN).
TEST(Trainer, RejectsEmptyDatasetsUpFront) {
  Tiny t;
  auto model = build_model(t.model_cfg);
  TrainConfig tc = t.base_train();
  tc.epochs = 2;
  obs::Counter& batches = obs::registry().counter("data.batches_produced");
  const std::uint64_t before = batches.value();
  EXPECT_THROW(train(*model, t.train_set.head(0), t.test_set, tc),
               std::invalid_argument);
  EXPECT_THROW(train(*model, t.train_set, t.test_set.head(0), tc),
               std::invalid_argument);
  EXPECT_EQ(batches.value(), before);
}

TEST(Trainer, SeedChangesTrajectory) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto m1 = build_model(t.model_cfg);
    auto m2 = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.epochs = 2;
    const TrainStats s1 = train(*m1, t.train_set, t.test_set, tc);
    tc.seed = 77;
    const TrainStats s2 = train(*m2, t.train_set, t.test_set, tc);
    EXPECT_NE(s1.epoch_loss, s2.epoch_loss);
  });
}

TEST(Trainer, ClippingProjectionHolds) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.method = Method::kClipping;
    tc.wmax = 0.1f;
    train(*model, t.train_set, t.test_set, tc);
    for (Param* p : model->params()) {
      EXPECT_LE(p->value.abs_max(), 0.1f + 1e-6f) << p->name;
    }
  });
}

TEST(Trainer, ClipWeightsHelper) {
  Tiny t;
  auto model = build_model(t.model_cfg);
  for (Param* p : model->params()) p->value.fill(5.0f);
  clip_weights(model->params(), 0.25f);
  for (Param* p : model->params()) EXPECT_EQ(p->value.abs_max(), 0.25f);
  // wmax <= 0 is a no-op.
  for (Param* p : model->params()) p->value.fill(5.0f);
  clip_weights(model->params(), 0.0f);
  for (Param* p : model->params()) EXPECT_EQ(p->value.abs_max(), 5.0f);
}

TEST(Trainer, RandBETActivatesAfterLossGate) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.method = Method::kRandBET;
    tc.wmax = 0.3f;
    tc.p_train = 0.005;
    tc.bit_error_loss_threshold = 99.0f;  // open gate: activates after epoch 1
    const TrainStats stats = train(*model, t.train_set, t.test_set, tc);
    EXPECT_EQ(stats.bit_error_start_epoch, 1);
    EXPECT_LT(stats.final_test_err, 0.6f);
  });
}

TEST(Trainer, RandBETGateCanStayClosed) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.epochs = 1;
    tc.method = Method::kRandBET;
    tc.p_train = 0.01;
    tc.bit_error_loss_threshold = 0.0f;  // never reached
    const TrainStats stats = train(*model, t.train_set, t.test_set, tc);
    EXPECT_EQ(stats.bit_error_start_epoch, -1);
  });
}

TEST(Trainer, PattBETIsDeterministicInPattern) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    TrainConfig tc = t.base_train();
    tc.method = Method::kPattBET;
    tc.p_train = 0.02;
    tc.wmax = 0.3f;
    tc.bit_error_loss_threshold = 99.0f;
    tc.epochs = 6;
    auto m1 = build_model(t.model_cfg);
    auto m2 = build_model(t.model_cfg);
    const TrainStats s1 = train(*m1, t.train_set, t.test_set, tc);
    tc.pattern_seed = 4242;  // different fixed pattern
    const TrainStats s2 = train(*m2, t.train_set, t.test_set, tc);
    // Different fixed patterns change the trajectory once injection starts.
    EXPECT_NE(s1.epoch_loss, s2.epoch_loss);
  });
}

// RandBET's inner loop builds each epoch's ChipFaultList once and reapplies
// it per batch (list vs scalar byte identity is ChipFaultList's own test in
// test_faults.cpp). These pins freeze the resulting trajectories, recorded
// under the reference backend; any drift in the injection path, the fault
// hashing or the training loop moves them.
TrainStats randbet_trajectory(bool curricular) {
  Tiny t;
  TrainConfig tc = t.base_train();
  tc.method = Method::kRandBET;
  tc.curricular = curricular;
  tc.wmax = 0.3f;
  tc.p_train = 0.02;
  tc.bit_error_loss_threshold = 99.0f;  // inject from epoch 1
  tc.epochs = 5;
  auto model = build_model(t.model_cfg);
  const kernels::ScopedBackend reference(kernels::backend("reference"));
  return train(*model, t.train_set, t.test_set, tc);
}

TEST(Trainer, RandBetTrajectoryPinned) {
  const TrainStats s = randbet_trajectory(/*curricular=*/false);
  const std::vector<float> loss{0x1.2bcd4cp+1f, 0x1.1a437cp+1f,
                                0x1.087386p+1f, 0x1.03d298p+1f,
                                0x1.008072p+1f};
  EXPECT_EQ(s.epoch_loss, loss);
  EXPECT_EQ(s.final_test_err, 0x1.147ae2p-1f);
}

TEST(Trainer, RandBetCurricularTrajectoryPinned) {
  // The curricular ramp varies p per epoch; the list is built once at
  // p_train and filtered down by persistence.
  const TrainStats s = randbet_trajectory(/*curricular=*/true);
  const std::vector<float> loss{0x1.2bcd4cp+1f, 0x1.1991e8p+1f,
                                0x1.0683b4p+1f, 0x1.01b4e2p+1f,
                                0x1.fce2fep+0f};
  EXPECT_EQ(s.epoch_loss, loss);
  EXPECT_EQ(s.final_test_err, 0x1.0a3d7p-1f);
}

// A SimpleNet-GN RandBET run at batch 64 on 16x16 images: every conv
// lowering, GroupNorm, ReLU and MaxPool2d of the first four blocks touches
// at least kIntraOpMinFloats floats, so those loops split over the pool
// whenever more than one thread is asked for.
struct ConvRun {
  TrainStats stats;
  std::vector<float> weights;  // every parameter, concatenated
};

ConvRun conv_randbet_run(const char* backend) {
  SyntheticConfig dc = SyntheticConfig::cifar10();
  dc.image_size = 16;
  dc.n_train = 128;
  dc.n_test = 64;
  const Dataset train_set = make_synthetic(dc, true);
  const Dataset test_set = make_synthetic(dc, false);
  ModelConfig mc;  // SimpleNet + GroupNorm
  mc.width = 8;
  mc.image_size = 16;
  TrainConfig tc;
  tc.method = Method::kRandBET;
  tc.wmax = 0.3f;
  tc.p_train = 0.02;
  tc.bit_error_loss_threshold = 99.0f;  // inject from epoch 1
  tc.epochs = 3;
  tc.batch_size = 64;
  auto model = build_model(mc);
  const kernels::ScopedBackend scoped(kernels::backend(backend));
  ConvRun run{train(*model, train_set, test_set, tc), {}};
  for (Param* p : model->params()) {
    run.weights.insert(run.weights.end(), p->value.data(),
                       p->value.data() + p->value.numel());
  }
  return run;
}

TEST(Trainer, ConvRandBetTrajectoryPinned) {
  // Pinned under the reference backend (per-image conv lowering; the
  // GroupNorm, ReLU and MaxPool2d loops are shared by every backend).
  const ConvRun ref = conv_randbet_run("reference");
  ASSERT_EQ(ref.stats.bit_error_start_epoch, 1);
  const std::vector<float> loss{0x1.43ebd8p+1f, 0x1.31e08ep+1f,
                                0x1.2934e4p+1f};
  EXPECT_EQ(ref.stats.epoch_loss, loss);
  EXPECT_EQ(ref.stats.final_test_err, 0x1.b8p-1f);
  // FNV-1a over the bits of every trained weight, in params() order.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const float w : ref.weights) {
    std::uint32_t bits;
    std::memcpy(&bits, &w, sizeof bits);
    hash = (hash ^ bits) * 0x100000001b3ull;
  }
  EXPECT_EQ(hash, 0xf8615cebeda74225ull);

  // The blocked backend's coalesced lowering, at several pool splits: the
  // loss trajectory, test error and every trained weight are bit-identical.
  const ConvRun one = [] {
    const test::ScopedThreadsEnv threads("1");
    return conv_randbet_run("blocked");
  }();
  for (const char* threads : {"3", "4"}) {
    const test::ScopedThreadsEnv scoped(threads);
    const ConvRun many = conv_randbet_run("blocked");
    EXPECT_EQ(many.stats.epoch_loss, one.stats.epoch_loss) << threads;
    EXPECT_EQ(many.stats.final_test_err, one.stats.final_test_err) << threads;
    EXPECT_TRUE(test::same_bits(many.weights, one.weights)) << threads;
  }
}

TEST(Trainer, NonQuantAwarePath) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.quant_aware = false;
    const TrainStats stats = train(*model, t.train_set, t.test_set, tc);
    EXPECT_LT(stats.final_test_err, 0.5f);
  });
}

TEST(Trainer, LabelSmoothingTrains) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.label_smoothing = 0.1f;
    const TrainStats stats = train(*model, t.train_set, t.test_set, tc);
    // Smoothed loss floor: -0.9 log 0.9 - 0.1 log(0.1/9) ~ 0.55.
    EXPECT_GT(stats.epoch_loss.back(), 0.3f);
    EXPECT_LT(stats.final_test_err, 0.5f);
  });
}

TEST(Trainer, CurricularVariantRuns) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.method = Method::kRandBET;
    tc.curricular = true;
    tc.wmax = 0.3f;
    tc.p_train = 0.01;
    const TrainStats stats = train(*model, t.train_set, t.test_set, tc);
    EXPECT_LT(stats.final_test_err, 0.6f);
  });
}

TEST(Trainer, AlternatingVariantRespectsClip) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.method = Method::kRandBET;
    tc.alternating = true;
    tc.wmax = 0.3f;
    tc.p_train = 0.01;
    tc.bit_error_loss_threshold = 99.0f;
    train(*model, t.train_set, t.test_set, tc);
    for (Param* p : model->params()) {
      EXPECT_LE(p->value.abs_max(), 0.3f + 1e-6f);
    }
  });
}

TEST(Trainer, LowPrecisionQuantAwareTrains) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Tiny t;
    auto model = build_model(t.model_cfg);
    TrainConfig tc = t.base_train();
    tc.quant = QuantScheme::rquant(4);
    tc.method = Method::kClipping;
    tc.wmax = 0.3f;
    const TrainStats stats = train(*model, t.train_set, t.test_set, tc);
    EXPECT_LT(stats.final_test_err, 0.5f);
  });
}

}  // namespace
}  // namespace ber
