// Redundancy metric tests (Fig. 10): clipping-style weight distributions
// must score higher relevance and lower relative bit-error damage.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/shapes.h"
#include "eval/redundancy.h"
#include "models/factory.h"
#include "nn/init.h"
#include "test_util.h"

namespace ber {
namespace {

using test::Mode;
using test::for_each_mode;
using test::kBackendModes;

std::unique_ptr<Sequential> make_model(std::uint64_t seed) {
  ModelConfig mc;
  mc.arch = Arch::kMlp;
  mc.in_channels = 1;
  mc.width = 8;
  auto model = build_model(mc);
  Rng rng(seed);
  he_init(*model, rng);
  return model;
}

Dataset probe_data() {
  auto cfg = SyntheticConfig::mnist();
  cfg.n_test = 64;
  return make_synthetic(cfg, false);
}

TEST(Redundancy, UniformWeightsScoreHigherRelevanceThanSpiky) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    auto model = make_model(1);
    const Dataset probe = probe_data();
    // Spiky: He-init Gaussian with one huge outlier.
    model->params()[0]->value[0] = 5.0f;
    const RedundancyStats spiky =
        redundancy_stats(*model, QuantScheme::rquant(8), probe, 0.01);

    // Clipped-style: same weights saturated to a small wmax (mass at the
    // boundary, like Fig. 10's clipped histograms).
    for (Param* p : model->params()) p->value.clamp(-0.05f, 0.05f);
    const RedundancyStats clipped =
        redundancy_stats(*model, QuantScheme::rquant(8), probe, 0.01);

    EXPECT_GT(clipped.weight_relevance, 2.0 * spiky.weight_relevance);
    EXPECT_LT(clipped.max_abs_weight, spiky.max_abs_weight);
  });
}

TEST(Redundancy, RelAbsErrorGrowsWithP) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    auto model = make_model(2);
    const Dataset probe = probe_data();
    const RedundancyStats lo =
        redundancy_stats(*model, QuantScheme::rquant(8), probe, 0.001);
    const RedundancyStats hi =
        redundancy_stats(*model, QuantScheme::rquant(8), probe, 0.05);
    EXPECT_GT(hi.rel_abs_error, 5.0 * lo.rel_abs_error);
  });
}

TEST(Redundancy, ZeroPGivesZeroError) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    auto model = make_model(3);
    const RedundancyStats s =
        redundancy_stats(*model, QuantScheme::rquant(8), probe_data(), 0.0);
    EXPECT_EQ(s.rel_abs_error, 0.0);
  });
}

TEST(Redundancy, FracZeroDetectsSparsity) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    auto model = make_model(4);
    // Zero half of the first weight tensor.
    Param* p = model->params()[0];
    for (long i = 0; i < p->value.numel() / 2; ++i) p->value[i] = 0.0f;
    const RedundancyStats s =
        redundancy_stats(*model, QuantScheme::rquant(8), probe_data(), 0.0);
    EXPECT_GT(s.frac_zero, 0.1);
  });
}

TEST(Redundancy, ReluRelevanceInUnitInterval) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    auto model = make_model(5);
    const RedundancyStats s =
        redundancy_stats(*model, QuantScheme::rquant(8), probe_data(), 0.01);
    EXPECT_GT(s.relu_relevance, 0.0);
    EXPECT_LE(s.relu_relevance, 1.0);
  });
}

TEST(Redundancy, DeterministicForChipSeed) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    auto model = make_model(6);
    const Dataset probe = probe_data();
    const RedundancyStats a =
        redundancy_stats(*model, QuantScheme::rquant(8), probe, 0.01, 77);
    const RedundancyStats b =
        redundancy_stats(*model, QuantScheme::rquant(8), probe, 0.01, 77);
    EXPECT_EQ(a.rel_abs_error, b.rel_abs_error);
  });
}

}  // namespace
}  // namespace ber
