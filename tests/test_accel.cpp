// Accelerator energy model tests: traffic accounting and voltage scaling.
#include <gtest/gtest.h>

#include "accel/accelerator.h"
#include "models/factory.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "test_util.h"

namespace ber {
namespace {

using test::Mode;
using test::for_each_mode;
using test::kBackendModes;

TEST(Accel, ConvMacAccounting) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Sequential seq;
    seq.emplace<Conv2d>(3, 8, 3, 1, 1);
    const auto profiles = profile_model(seq, {1, 3, 12, 12});
    ASSERT_EQ(profiles.size(), 1u);
    // MACs = out elems (8*12*12) * in_ch*k*k (27).
    EXPECT_EQ(profiles[0].macs, 8L * 12 * 12 * 27);
    EXPECT_EQ(profiles[0].weights, 8L * 3 * 9 + 8);
    EXPECT_EQ(profiles[0].activations, 8L * 12 * 12);
  });
}

TEST(Accel, LinearMacAccounting) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Sequential seq;
    seq.emplace<Flatten>();
    seq.emplace<Linear>(48, 10);
    const auto profiles = profile_model(seq, {1, 3, 4, 4});
    ASSERT_EQ(profiles.size(), 2u);
    EXPECT_EQ(profiles[1].macs, 480);
    EXPECT_EQ(profiles[1].weights, 490);
  });
}

TEST(Accel, ResidualBlocksExpanded) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    mc.arch = Arch::kResNetSmall;
    auto model = build_model(mc);
    const auto profiles = profile_model(*model, {1, 3, 12, 12});
    long conv_layers = 0;
    for (const auto& p : profiles) {
      if (p.name.rfind("Conv2d", 0) == 0) ++conv_layers;
    }
    EXPECT_GE(conv_layers, 5);  // stem + 2 residual bodies x 2 + head conv
  });
}

TEST(Accel, WeightsMatchModelTotal) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    auto model = build_model(mc);
    const auto profiles = profile_model(*model, {1, 3, 12, 12});
    long total = 0;
    for (const auto& p : profiles) total += p.weights;
    EXPECT_EQ(total, model->num_weights());
  });
}

TEST(Accel, EnergyDecreasesWithVoltage) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    auto model = build_model(mc);
    const auto profiles = profile_model(*model, {1, 3, 12, 12});
    AcceleratorConfig cfg;
    const double at_vmin = inference_energy(profiles, cfg, 1.0).total();
    const double at_low = inference_energy(profiles, cfg, 0.85).total();
    EXPECT_LT(at_low, at_vmin);
    EXPECT_GT(inference_energy_saving(profiles, cfg, 0.85), 0.0);
    EXPECT_NEAR(inference_energy_saving(profiles, cfg, 1.0), 0.0, 1e-12);
  });
}

TEST(Accel, ComputeEnergyIsVoltageIndependent) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    auto model = build_model(mc);
    const auto profiles = profile_model(*model, {1, 3, 12, 12});
    AcceleratorConfig cfg;
    EXPECT_EQ(inference_energy(profiles, cfg, 1.0).compute_energy,
              inference_energy(profiles, cfg, 0.8).compute_energy);
  });
}

TEST(Accel, SavingBoundedByMemoryShare) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    // Total saving can never exceed the memory fraction of total energy.
    ModelConfig mc;
    auto model = build_model(mc);
    const auto profiles = profile_model(*model, {1, 3, 12, 12});
    AcceleratorConfig cfg;
    const EnergyBreakdown b = inference_energy(profiles, cfg, 1.0);
    const double mem_share = b.memory_energy / b.total();
    EXPECT_LT(inference_energy_saving(profiles, cfg, 0.75), mem_share);
  });
}

TEST(Accel, BreakdownComponentsSum) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    ModelConfig mc;
    auto model = build_model(mc);
    const auto profiles = profile_model(*model, {1, 3, 12, 12});
    AcceleratorConfig cfg;
    const EnergyBreakdown b = inference_energy(profiles, cfg, 0.9);
    EXPECT_NEAR(b.total(), b.memory_energy + b.compute_energy, 1e-9);
    EXPECT_GT(b.weight_accesses, 0.0);
    EXPECT_GT(b.activation_accesses, 0.0);
  });
}

}  // namespace
}  // namespace ber
