// Tab. 18-21: the full appendix RErr grids — every cached model of each
// dataset evaluated over the standard p grid. Relies entirely on the zoo
// cache populated by the other benches (it will train anything missing).
#include "bench_util.h"

namespace {

using namespace ber;
using namespace ber::bench;

void grid_for(const std::string& tag, const std::string& title,
              const std::vector<double>& grid) {
  std::printf("%s\n", title.c_str());
  std::vector<std::string> names;
  for (const auto& s : zoo::all_specs()) {
    if (s.dataset.name == tag) names.push_back(s.name);
  }
  zoo::ensure(names);

  std::vector<std::string> headers{"Model", "m", "Err (%)"};
  for (double p : grid) {
    headers.push_back("p=" + TablePrinter::fmt(100 * p, 100 * p < 0.01 ? 3 : 2) +
                      "%");
  }
  TablePrinter t(headers);
  for (const auto& name : names) {
    const api::ModelEntry& s = zoo::spec(name);
    std::vector<std::string> row{s.label,
                                 std::to_string(s.quant.bits),
                                 TablePrinter::fmt(clean_err_pct(name), 2)};
    for (double p : grid) {
      row.push_back(TablePrinter::fmt(100.0 * rerr(name, p).mean_rerr, 2));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main() {
  banner("Tab. 18-21", "full appendix RErr grids for every trained model");
  grid_for("c10", "CIFAR10 analog (Tab. 18/19):", c10_p_grid());
  grid_for("c100", "CIFAR100 analog (Tab. 20):", c100_p_grid());
  grid_for("mnist", "MNIST analog (Tab. 21):", mnist_p_grid());
  return 0;
}
