// Tab. 5 / Tab. 15: generalization of RandBET to profiled chips it has never
// seen — including chip 2's column-aligned, 0-to-1-biased distribution.
//
// Thin driver over the declarative experiment API: one api::ExperimentSpec
// per chip, the voltage grid swept through the evaluator's persistence fast
// path (one cell-lookup sweep per mapping serves both voltages). The chip-2
// scenario also ships as configs/tab5_profiled.json.
#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Tab. 5 / Tab. 15", "generalization to (synthetic) profiled chips");

  const std::vector<std::string> models{"c10_rquant", "c10_clip100",
                                        "c10_randbet01_p15"};
  zoo::ensure(models);

  const std::vector<std::pair<std::string, std::string>> chips{
      {"Chip 1", "chip1"}, {"Chip 2", "chip2"}};
  const std::vector<double> voltages{0.88, 0.84};

  for (const auto& [chip_label, chip_name] : chips) {
    // The chip the experiment will build (for the banner rates only; the
    // Runner constructs its own from the same preset).
    const ProfiledChipConfig cfg = chip_name == "chip1"
                                       ? ProfiledChipConfig::chip1()
                                       : ProfiledChipConfig::chip2();
    ProfiledChip chip(cfg);
    std::printf("%s (column-vulnerable fraction %.2f, 0-to-1 share at 0.84 "
                "Vmin: %.2f)\n",
                chip_label.c_str(), cfg.vulnerable_column_fraction,
                chip.set1_share_at(0.84));

    api::ExperimentSpec spec;
    spec.name = "tab5_" + chip_name;
    for (const auto& name : models) spec.models.emplace_back().zoo = name;
    spec.fault.model = "profiled";
    spec.fault.params.set("chip", chip_name);
    spec.eval.voltage_grid = voltages;
    spec.eval.clean_err = false;
    const api::Report report = api::Runner(spec).run();

    std::vector<std::string> headers{"Model"};
    for (double v : voltages) {
      headers.push_back("RErr @ V/Vmin=" + TablePrinter::fmt(v, 2) + " (p~" +
                        TablePrinter::fmt(100.0 * chip.error_rate_at(v), 2) +
                        "%)");
    }
    TablePrinter t(headers);
    for (const api::ModelReport& m : report.models) {
      std::vector<std::string> row{m.label};
      for (const api::ReportPoint& pt : m.points) {
        row.push_back(fmt_rerr(pt.result));
      }
      t.add_row(std::move(row));
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "Paper shape: RandBET (trained ONLY on uniform random errors) holds up "
      "on both chips; chip 2's column-aligned errors are harder at matched "
      "rate; RQuant alone collapses at the lower voltage.\n");
  return 0;
}
