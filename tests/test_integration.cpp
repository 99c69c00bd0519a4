// End-to-end integration tests reproducing the paper's qualitative claims at
// miniature scale: train -> quantize -> inject -> evaluate.
#include <gtest/gtest.h>

#include <cstdio>

#include "biterror/injector.h"
#include "data/shapes.h"
#include "eval/metrics.h"
#include "faults/evaluator.h"
#include "faults/profiled_chip_model.h"
#include "faults/random_bit_error_model.h"
#include "models/factory.h"
#include "serve/checkpoint.h"
#include "train/trainer.h"

namespace ber {
namespace {

// Shared miniature task; trained models are cached across tests in this
// binary to keep runtime low.
// Miniature CIFAR10-analog task with a small GN CNN — the same architecture
// family as the paper's experiments, so the clipping robustness mechanism
// (normalization absorbs the scale constraint) applies.
struct Mini {
  Dataset train_set, test_set;
  ModelConfig model_cfg;

  Mini() {
    auto cfg = SyntheticConfig::cifar10();
    cfg.n_train = 1500;
    cfg.n_test = 300;
    train_set = make_synthetic(cfg, true);
    test_set = make_synthetic(cfg, false);
    model_cfg.width = 8;
  }

  TrainConfig base() const {
    TrainConfig tc;
    tc.epochs = 30;
    tc.batch_size = 50;
    return tc;
  }
};

Mini& mini() {
  static Mini m;
  return m;
}

Sequential& rquant_model() {
  static std::unique_ptr<Sequential> model = [] {
    auto m = build_model(mini().model_cfg);
    train(*m, mini().train_set, mini().test_set, mini().base());
    return m;
  }();
  return *model;
}

Sequential& clipped_model() {
  static std::unique_ptr<Sequential> model = [] {
    auto m = build_model(mini().model_cfg);
    TrainConfig tc = mini().base();
    tc.method = Method::kClipping;
    tc.wmax = 0.15f;
    train(*m, mini().train_set, mini().test_set, tc);
    return m;
  }();
  return *model;
}

// RErr of `model` under uniform random bit errors at rate p, averaged over
// `n_chips` chips (seeds 1000, 1001, ...).
RobustResult random_rerr(Sequential& model, const QuantScheme& scheme,
                         double p, int n_chips) {
  BitErrorConfig cfg;
  cfg.p = p;
  return RobustnessEvaluator(model, scheme)
      .run(RandomBitErrorModel(cfg), mini().test_set, n_chips);
}

TEST(Integration, TrainingReachesLowError) {
  const float err = test_error(rquant_model(), mini().test_set);
  EXPECT_LT(err, 0.35f);  // miniature budget; chance would be 0.9
}

TEST(Integration, RobustErrorAtLeastCleanError) {
  Sequential& model = rquant_model();
  const QuantScheme scheme = QuantScheme::rquant(8);
  const float clean = test_error(model, mini().test_set, &scheme);
  const RobustResult r = random_rerr(model, scheme, 0.01, 6);
  EXPECT_GE(r.mean_rerr, clean - 0.01f);
}

TEST(Integration, RobustErrorGrowsWithRate) {
  Sequential& model = rquant_model();
  const QuantScheme scheme = QuantScheme::rquant(8);
  std::vector<float> rerrs;
  for (double p : {0.001, 0.01, 0.05}) {
    rerrs.push_back(random_rerr(model, scheme, p, 6).mean_rerr);
  }
  EXPECT_LE(rerrs[0], rerrs[1] + 0.02f);
  EXPECT_LT(rerrs[1], rerrs[2] + 0.02f);
  EXPECT_GT(rerrs[2], rerrs[0]);  // clear growth over two decades
}

TEST(Integration, GlobalQuantizationFarLessRobust) {
  // Tab. 1 row 1 vs row 2: one global range makes moderate bit error rates
  // catastrophic, per-tensor ranges contain the damage.
  Sequential& model = rquant_model();
  const RobustResult global =
      random_rerr(model, QuantScheme::global_symmetric(8), 0.005, 6);
  const RobustResult per_tensor =
      random_rerr(model, QuantScheme::normal(8), 0.005, 6);
  EXPECT_GT(global.mean_rerr, per_tensor.mean_rerr + 0.05f);
}

TEST(Integration, ClippingImprovesHighRateRobustness) {
  // Sec. 5.2: weight clipping reduces the DAMAGE bit errors cause. At
  // miniature training budgets clipping costs some clean accuracy, so the
  // paper-faithful assertion is on the degradation RErr - Err, which
  // clipping must shrink.
  const QuantScheme scheme = QuantScheme::rquant(8);
  const float plain_clean = test_error(rquant_model(), mini().test_set, &scheme);
  const float clip_clean = test_error(clipped_model(), mini().test_set, &scheme);
  const RobustResult plain = random_rerr(rquant_model(), scheme, 0.01, 8);
  const RobustResult clipped = random_rerr(clipped_model(), scheme, 0.01, 8);
  const float plain_damage = plain.mean_rerr - plain_clean;
  const float clip_damage = clipped.mean_rerr - clip_clean;
  EXPECT_LT(clip_damage, plain_damage);
  // Clean accuracy must not collapse from clipping.
  EXPECT_LT(clip_clean, 0.45f);
}

TEST(Integration, SaveLoadPreservesRobustnessExactly) {
  const std::string path = testing::TempDir() + "/ber_integration_model.bin";
  Sequential& model = rquant_model();
  const QuantScheme scheme = QuantScheme::rquant(8);
  save_checkpoint(path, model, scheme);
  auto fresh = build_model(mini().model_cfg);
  EXPECT_EQ(load_checkpoint(path, *fresh), scheme);
  const RobustResult a = random_rerr(model, scheme, 0.01, 3);
  const RobustResult b = random_rerr(*fresh, scheme, 0.01, 3);
  EXPECT_EQ(a.per_chip, b.per_chip);
  std::remove(path.c_str());
}

TEST(Integration, LowerVoltageMeansHigherRErrOnProfiledChip) {
  Sequential& model = rquant_model();
  ProfiledChipConfig cc = ProfiledChipConfig::chip1();
  cc.rows = 1024;
  ProfiledChip chip(cc);
  const RobustnessEvaluator evaluator(model, QuantScheme::rquant(8));
  const RobustResult hi =
      evaluator.run(ProfiledChipModel(chip, 0.92), mini().test_set, 3);
  const RobustResult lo =
      evaluator.run(ProfiledChipModel(chip, 0.80), mini().test_set, 3);
  EXPECT_GE(lo.mean_rerr, hi.mean_rerr - 0.02f);
  EXPECT_GT(lo.mean_rerr, 0.3f);  // 0.80 Vmin is ~2% bit errors: damaging
}

}  // namespace
}  // namespace ber
