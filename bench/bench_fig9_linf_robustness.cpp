// Fig. 9: robustness against relative L-inf weight noise — clipping's
// benefit is not specific to bit errors.
#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Fig. 9", "relative L-inf weight-noise robustness of clipping");

  const std::vector<std::string> models{"c10_normal", "c10_clip300",
                                        "c10_clip200", "c10_clip150"};
  zoo::ensure(models);

  const std::vector<double> eps_grid{0.01, 0.02, 0.05, 0.10, 0.20, 0.30};
  std::vector<std::string> headers{"Model"};
  for (double e : eps_grid) {
    headers.push_back("eps=" + TablePrinter::fmt(100 * e, 0) + "%");
  }
  TablePrinter t(headers);
  for (const auto& name : models) {
    const api::ModelEntry& s = zoo::spec(name);
    Sequential& model = zoo::get(name);
    // Float-space evaluator (no quantization), shared across the eps grid.
    RobustnessEvaluator evaluator(model);
    std::vector<std::string> row{s.label};
    for (double e : eps_grid) {
      const RobustResult r =
          evaluator.run(LinfNoiseModel(e), zoo::dataset(s.dataset, "rerr"),
                        zoo::default_chips());
      row.push_back(TablePrinter::fmt(100.0 * r.mean_rerr, 2));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf(
      "\nPaper shape: stronger clipping pushes the collapse point to larger "
      "relative noise (note: L-inf noise hits ALL weights, unlike BErr_p).\n");
  return 0;
}
