// Deployment rehearsal on unseen profiled chips: take a RandBET-trained
// model (trained ONLY on uniform random bit errors) and qualify it on three
// synthetic profiled chips with different error structure — the Tab. 5
// cross-chip generalization story as a go/no-go voltage selection tool.
//
// Declared through the experiment API: one api::ExperimentSpec per chip with
// a "profiled" fault and a voltage grid; the Runner sweeps every voltage from
// ONE cell-lookup pass per weight-to-memory mapping (profiled maps are
// persistent in voltage) and the model checkpoint is shared across the
// three experiments via the api cache.
//
//   ./example_profiled_chip_deployment
#include <cstdio>

#include "ber.h"

int main() {
  using namespace ber;

  // The RandBET model under test — an inline spec entry; the first
  // experiment trains it, the cache serves the other two.
  api::ModelEntry entry;
  entry.name = "profiled_deploy_cnn";
  entry.dataset.name = "c10";
  entry.dataset.config = SyntheticConfig::cifar10();
  entry.dataset.config.n_train = 1500;
  entry.dataset.config.n_test = 500;
  entry.model.width = 8;
  entry.quant = QuantScheme::rquant(8);
  entry.train.method = Method::kRandBET;
  entry.train.quant = entry.quant;
  entry.train.wmax = 0.15f;
  entry.train.p_train = 0.015;
  entry.train.epochs = 30;
  entry.train.lr_warmup_epochs = 3;

  struct ChipCase {
    const char* label;
    const char* preset;
    long seed;
  };
  const ChipCase chips[] = {
      {"chip A (uniform-like)", "chip1", 11},
      {"chip B (column-aligned, 0->1 biased)", "chip2", 22},
      {"chip C (mildly column-aligned)", "chip3", 33},
  };
  const std::vector<double> voltages{0.92, 0.88, 0.86, 0.84, 0.82};
  const SramEnergyModel energy;

  double clean_pct = -1.0;
  for (const ChipCase& c : chips) {
    api::ExperimentSpec spec;
    spec.name = std::string("deploy_") + c.preset;
    spec.models.push_back(entry);
    spec.fault.model = "profiled";
    spec.fault.params.set("chip", c.preset);
    spec.fault.params.set("seed", c.seed);
    spec.eval.voltage_grid = voltages;
    spec.eval.n_trials = 4;
    spec.eval.split = "test";
    const api::Report report = api::Runner(spec).run();
    const api::ModelReport& m = report.models.front();
    if (clean_pct < 0.0) {
      clean_pct = 100.0 * m.clean_err;
      std::printf("RandBET model ready, clean Err %.2f%%\n", clean_pct);
      std::printf("qualification rule: RErr must stay below clean Err + 3%%\n\n");
    }

    std::printf("%s\n", c.label);
    std::printf("  %-9s %-16s %s\n", "V/Vmin", "RErr (%)", "verdict");
    double best_saving = 0.0;
    bool still_ok = true;
    for (const api::ReportPoint& pt : m.points) {
      const bool ok =
          still_ok && 100.0 * pt.result.mean_rerr < clean_pct + 3.0;
      if (ok) best_saving = 1.0 - energy.energy_per_access(pt.x);
      still_ok = still_ok && ok;  // rates only grow below this voltage
      std::printf("  %-9.2f %6.2f +-%-7.2f %s\n", pt.x,
                  100.0 * pt.result.mean_rerr, 100.0 * pt.result.std_rerr,
                  ok ? "OK" : "too risky");
    }
    std::printf("  -> qualified energy saving on this chip: %.1f%%\n\n",
                100.0 * best_saving);
  }
  std::printf(
      "No per-chip profiling went into TRAINING — the model generalizes "
      "across chips and voltages, which is the paper's key deployment "
      "property.\n");
  return 0;
}
