// Energy/accuracy trade-off explorer: given a robust-trained model and an
// accuracy budget, find the lowest safe operating voltage and report the
// energy saving — the deployment decision the paper's Fig. 1 + Fig. 2
// combination enables.
//
//   ./example_energy_accuracy_tradeoff [max_rerr_increase_pct]
#include <cstdio>
#include <cstdlib>

#include "ber.h"

namespace {

// Trains one model with the given method (quickstart-sized).
std::unique_ptr<ber::Sequential> train_model(const ber::Dataset& train_set,
                                             const ber::Dataset& test_set,
                                             ber::Method method, float wmax,
                                             double p_train) {
  using namespace ber;
  ModelConfig mc;
  mc.width = 8;
  auto model = build_model(mc);
  TrainConfig tc;
  tc.method = method;
  tc.wmax = wmax;
  tc.p_train = p_train;
  tc.epochs = 30;
  tc.lr_warmup_epochs = 3;
  train(*model, train_set, test_set, tc);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ber;
  const double budget_pct = argc > 1 ? std::atof(argv[1]) : 2.0;

  SyntheticConfig data_cfg = SyntheticConfig::cifar10();
  data_cfg.n_train = 1500;
  data_cfg.n_test = 500;
  const Dataset train_set = make_synthetic(data_cfg, true);
  const Dataset test_set = make_synthetic(data_cfg, false);

  std::printf("accuracy budget: RErr may exceed clean Err by at most %.1f%%\n\n",
              budget_pct);

  struct Candidate {
    const char* label;
    Method method;
    float wmax;
    double p_train;
  };
  const Candidate candidates[] = {
      {"RQuant only", Method::kNormal, 0.0f, 0.0},
      {"+Clipping 0.15", Method::kClipping, 0.15f, 0.0},
      {"+RandBET p=1%", Method::kRandBET, 0.15f, 0.01},
  };

  const SramEnergyModel energy;
  const QuantScheme scheme = QuantScheme::rquant(8);
  std::printf("%-16s %-9s %-12s %-9s %s\n", "method", "Err (%)",
              "max safe p(%)", "V/Vmin", "energy saving (%)");
  for (const Candidate& c : candidates) {
    auto model = train_model(train_set, test_set, c.method, c.wmax, c.p_train);
    const float clean = 100.0f * test_error(*model, test_set, &scheme);

    // Sweep voltage downward until the accuracy budget is exhausted. RErr is
    // monotone in p (persistence), so the first violation is the frontier.
    double max_safe_p = 0.0;
    const RobustnessEvaluator evaluator(*model, scheme);
    for (double p : {0.0005, 0.001, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02,
                     0.025}) {
      BitErrorConfig bits;
      bits.p = p;
      const RobustResult r =
          evaluator.run(RandomBitErrorModel(bits), test_set, 5);
      if (100.0 * r.mean_rerr > clean + budget_pct) break;
      max_safe_p = p;
    }
    if (max_safe_p == 0.0) {
      std::printf("%-16s %-9.2f none safe at tested rates\n", c.label, clean);
      continue;
    }
    std::printf("%-16s %-9.2f %-12.2f %-9.3f %.1f\n", c.label, clean,
                100.0 * max_safe_p, energy.voltage_for_rate(max_safe_p),
                100.0 * energy.energy_saving_at_rate(max_safe_p));
  }
  std::printf(
      "\nPaper headline: the robust recipe turns 'no safe undervolting' into "
      "~20-30%% SRAM energy savings inside a small accuracy budget.\n");
  return 0;
}
