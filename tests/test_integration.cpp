// End-to-end integration tests reproducing the paper's qualitative claims at
// miniature scale: train -> quantize -> inject -> evaluate.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "biterror/injector.h"
#include "data/shapes.h"
#include "eval/metrics.h"
#include "faults/evaluator.h"
#include "faults/profiled_chip_model.h"
#include "faults/random_bit_error_model.h"
#include "models/factory.h"
#include "serve/checkpoint.h"
#include "test_util.h"
#include "train/trainer.h"

namespace ber {
namespace {

using test::Mode;

// Shared miniature task; each backend's trained models are cached across
// tests in this binary to keep runtime low.
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

// Trained models by backend name.
using ModelCache = std::map<std::string, std::unique_ptr<Sequential>>;

// The model trained with `tc` on `backend`, trained on first use.
Sequential& trained_model(const std::string& backend, const TrainConfig& tc,
                          ModelCache& cache) {
  std::unique_ptr<Sequential>& model = cache[backend];
  if (!model) {
    const kernels::ScopedBackend scoped(backend);
    model = build_model(mini().model_cfg);
    train(*model, mini().train_set, mini().test_set, tc);
  }
  return *model;
}

Sequential& rquant_model(const std::string& backend) {
  static ModelCache cache;
  return trained_model(backend, mini().base(), cache);
}

Sequential& clipped_model(const std::string& backend) {
  static ModelCache cache;
  TrainConfig tc = mini().base();
  tc.method = Method::kClipping;
  tc.wmax = 0.15f;
  return trained_model(backend, tc, cache);
}

// Each instance runs in the mode it is named after: the fixture scopes the
// backend, and code-space trials deploy on the code words when the mode
// says so. A mode's models are trained on its backend; the on-codes
// instances reuse the blocked ones.
class Integration : public ::testing::TestWithParam<Mode> {
 protected:
  const Mode& mode() const { return GetParam(); }
  Sequential& rquant() { return rquant_model(mode().backend); }
  Sequential& clipped() { return clipped_model(mode().backend); }

  // RErr of `model` under uniform random bit errors at rate p, averaged
  // over `n_chips` chips (seeds 1000, 1001, ...).
  RobustResult random_rerr(Sequential& model, const QuantScheme& scheme,
                           double p, int n_chips) const {
    BitErrorConfig cfg;
    cfg.p = p;
    return test::evaluator_in(mode(), model, scheme)
        .run(RandomBitErrorModel(cfg), mini().test_set, n_chips);
  }

 private:
  const kernels::ScopedBackend backend_{GetParam().backend};
};

// Float evaluation only: its instances are the two backends.
using IntegrationTraining = Integration;

TEST_P(IntegrationTraining, TrainingReachesLowError) {
  const float err = test_error(rquant(), mini().test_set);
  EXPECT_LT(err, 0.35f);  // miniature budget; chance would be 0.9
}

TEST_P(Integration, RobustErrorAtLeastCleanError) {
  Sequential& model = rquant();
  const QuantScheme scheme = QuantScheme::rquant(8);
  const float clean = test_error(model, mini().test_set, &scheme);
  const RobustResult r = random_rerr(model, scheme, 0.01, 6);
  EXPECT_GE(r.mean_rerr, clean - 0.01f);
}

TEST_P(Integration, RobustErrorGrowsWithRate) {
  Sequential& model = rquant();
  const QuantScheme scheme = QuantScheme::rquant(8);
  std::vector<float> rerrs;
  for (double p : {0.001, 0.01, 0.05}) {
    rerrs.push_back(random_rerr(model, scheme, p, 6).mean_rerr);
  }
  EXPECT_LE(rerrs[0], rerrs[1] + 0.02f);
  EXPECT_LT(rerrs[1], rerrs[2] + 0.02f);
  EXPECT_GT(rerrs[2], rerrs[0]);  // clear growth over two decades
}

TEST_P(Integration, GlobalQuantizationFarLessRobust) {
  // Tab. 1 row 1 vs row 2: one global range makes moderate bit error rates
  // catastrophic, per-tensor ranges contain the damage.
  Sequential& model = rquant();
  const RobustResult global =
      random_rerr(model, QuantScheme::global_symmetric(8), 0.005, 6);
  const RobustResult per_tensor =
      random_rerr(model, QuantScheme::normal(8), 0.005, 6);
  EXPECT_GT(global.mean_rerr, per_tensor.mean_rerr + 0.05f);
}

TEST_P(Integration, ClippingImprovesHighRateRobustness) {
  // Sec. 5.2: weight clipping reduces the DAMAGE bit errors cause. At
  // miniature training budgets clipping costs some clean accuracy, so the
  // paper-faithful assertion is on the degradation RErr - Err, which
  // clipping must shrink.
  const QuantScheme scheme = QuantScheme::rquant(8);
  const float plain_clean = test_error(rquant(), mini().test_set, &scheme);
  const float clip_clean = test_error(clipped(), mini().test_set, &scheme);
  const RobustResult plain = random_rerr(rquant(), scheme, 0.01, 8);
  const RobustResult clip = random_rerr(clipped(), scheme, 0.01, 8);
  const float plain_damage = plain.mean_rerr - plain_clean;
  const float clip_damage = clip.mean_rerr - clip_clean;
  EXPECT_LT(clip_damage, plain_damage);
  // Clean accuracy must not collapse from clipping.
  EXPECT_LT(clip_clean, 0.45f);
}

TEST_P(Integration, SaveLoadPreservesRobustnessExactly) {
  const std::string path = testing::TempDir() + "/ber_integration_model.bin";
  Sequential& model = rquant();
  const QuantScheme scheme = QuantScheme::rquant(8);
  save_checkpoint(path, model, scheme);
  auto fresh = build_model(mini().model_cfg);
  EXPECT_EQ(load_checkpoint(path, *fresh), scheme);
  const RobustResult a = random_rerr(model, scheme, 0.01, 3);
  const RobustResult b = random_rerr(*fresh, scheme, 0.01, 3);
  EXPECT_EQ(a.per_chip, b.per_chip);
  std::remove(path.c_str());
}

TEST_P(Integration, LowerVoltageMeansHigherRErrOnProfiledChip) {
  Sequential& model = rquant();
  ProfiledChipConfig cc = ProfiledChipConfig::chip1();
  cc.rows = 1024;
  ProfiledChip chip(cc);
  const RobustnessEvaluator evaluator =
      test::evaluator_in(mode(), model, QuantScheme::rquant(8));
  const RobustResult hi =
      evaluator.run(ProfiledChipModel(chip, 0.92), mini().test_set, 3);
  const RobustResult lo =
      evaluator.run(ProfiledChipModel(chip, 0.80), mini().test_set, 3);
  EXPECT_GE(lo.mean_rerr, hi.mean_rerr - 0.02f);
  EXPECT_GT(lo.mean_rerr, 0.3f);  // 0.80 Vmin is ~2% bit errors: damaging
}

INSTANTIATE_TEST_SUITE_P(Modes, IntegrationTraining,
                         ::testing::ValuesIn(test::kBackendModes),
                         test::mode_name);
INSTANTIATE_TEST_SUITE_P(Modes, Integration,
                         ::testing::ValuesIn(test::kAllModes),
                         test::mode_name);

}  // namespace
}  // namespace ber
