// Tab. 4: RandBET vs Clipping at 8 and 4 bits across bit error rates.
//
// Thin driver over the declarative experiment API — the same scenario ships
// as configs/tab4.json (`ber_run --table configs/tab4.json`) and both paths
// produce bit-identical numbers (tests/test_api.cpp).
#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Tab. 4", "random bit error training (RandBET), m=8 and m=4");

  const std::vector<std::string> m8{"c10_rquant", "c10_clip150",
                                    "c10_randbet015_p1"};
  const std::vector<std::string> m4{"c10_clip015_m4", "c10_randbet015_p1_m4"};
  std::vector<std::string> all = m8;
  all.insert(all.end(), m4.begin(), m4.end());
  zoo::ensure(all);

  const std::vector<double> grid{0.005, 0.01, 0.015};
  api::ExperimentSpec spec;
  spec.name = "tab4";
  for (const auto& name : all) spec.models.emplace_back().zoo = name;
  spec.fault.params.set("seed_base", 1000);
  spec.eval.rate_grid = grid;
  const api::Report report = api::Runner(spec).run();

  std::vector<std::string> headers{"Model", "Err (%)"};
  for (double p : grid) {
    headers.push_back("RErr p=" + TablePrinter::fmt(100 * p, 1) + "%");
  }
  TablePrinter t(headers);
  for (std::size_t i = 0; i < report.models.size(); ++i) {
    if (i == m8.size()) t.add_separator();
    const api::ModelReport& m = report.models[i];
    std::vector<std::string> row{m.label,
                                 TablePrinter::fmt(100.0 * m.clean_err, 2)};
    for (const api::ReportPoint& pt : m.points) {
      row.push_back(fmt_rerr(pt.result));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf(
      "\nPaper shape: for p <= 0.5%% clipping is nearly enough; at p >= 1%% "
      "RandBET clearly wins, and the gap widens at 4 bit.\n");
  return 0;
}
