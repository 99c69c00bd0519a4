// Quickstart: train a small CNN with quantization-aware training, deploy it
// at 8-bit fixed point, inject low-voltage bit errors and measure robust
// test error — the library's core loop, declared through the experiment API
// instead of hand-wired (the identical scenario ships as
// configs/quickstart.json for ber_run).
//
//   ./example_quickstart
#include <cstdio>

#include "ber.h"

int main() {
  using namespace ber;

  // 1. Declare the scenario: dataset, model, quantization scheme, the
  //    paper's full training recipe (RQuant + clipping + RandBET, Alg. 1)
  //    and the rate grid to sweep. Everything below is data — the same
  //    sections a configs/*.json spec file has.
  api::ModelEntry entry;
  entry.name = "quickstart_cnn";  // checkpoint cache stem (reruns skip training)
  entry.dataset.name = "c10";
  entry.dataset.config = SyntheticConfig::cifar10();
  entry.dataset.config.n_train = 1500;  // quickstart-sized
  entry.dataset.config.n_test = 500;
  entry.model.width = 8;
  entry.quant = QuantScheme::rquant(8);
  entry.train.method = Method::kRandBET;
  entry.train.quant = entry.quant;
  entry.train.wmax = 0.15f;
  entry.train.p_train = 0.01;  // train against 1% bit error rate
  entry.train.epochs = 30;
  entry.train.lr_warmup_epochs = 3;

  const std::vector<double> rates{0.001, 0.005, 0.01, 0.02};

  // 2. Run it: the Runner owns train -> quantize once -> inject -> evaluate
  //    (one fault-list build per chip covers the whole rate grid).
  api::ExperimentSpec spec;
  spec.name = "quickstart";
  spec.models.push_back(entry);
  spec.fault.model = "random";  // the Sec. 3 uniform bit error model
  spec.eval.rate_grid = rates;
  spec.eval.n_trials = 5;
  spec.eval.split = "test";
  const api::Report report = api::Runner(spec).run();

  // 3. Read the results off the structured report: RErr at increasing bit
  //    error rates, i.e. at decreasing SRAM supply voltage.
  const api::ModelReport& m = report.models.front();
  std::printf("clean Err %.2f%% (quantized, fault-free)\n\n",
              100.0 * m.clean_err);
  const SramEnergyModel energy;
  std::printf("%-8s %-10s %-18s %s\n", "p (%)", "V/Vmin", "RErr (%)",
              "energy saving (%)");
  for (const api::ReportPoint& pt : m.points) {
    std::printf("%-8.2f %-10.3f %6.2f +-%-8.2f %.1f\n", 100 * pt.x,
                energy.voltage_for_rate(pt.x), 100 * pt.result.mean_rerr,
                100 * pt.result.std_rerr,
                100.0 * energy.energy_saving_at_rate(pt.x));
  }

  // 4. The full machine-readable report (what `ber_run` would emit).
  std::printf("\nreport JSON:\n%s\n", report.to_json().dump(2).c_str());

  // 5. The Prop. 1 guarantee for this estimate.
  std::printf("\nProp. 1: with n=%d test examples and l=5 patterns, the "
              "expected RErr lies within +-%.1f%% of the estimate w.p. 99%%.\n",
              entry.dataset.config.n_test,
              100.0 * prop1_epsilon(entry.dataset.config.n_test, 5, 0.01));
  return 0;
}
