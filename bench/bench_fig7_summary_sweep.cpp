// Fig. 7: best-per-method RErr vs bit error rate on all three datasets
// (CIFAR10 / CIFAR100 / MNIST analogs).
//
// Thin driver over the declarative experiment API: one api::ExperimentSpec
// per dataset sweeps every model of every method across the whole p grid (one
// fault-list build per chip); the best-per-method reduction happens on the
// Report. The CIFAR10 sweep also ships as configs/fig7_c10.json.
#include <algorithm>

#include "bench_util.h"

namespace {

using namespace ber;
using namespace ber::bench;

using MethodGroups =
    std::vector<std::pair<std::string, std::vector<std::string>>>;

void sweep(const std::string& title, const MethodGroups& methods,
           const std::vector<double>& grid) {
  std::printf("%s\n", title.c_str());

  api::ExperimentSpec spec;
  spec.name = "fig7";
  for (const auto& [label, names] : methods) {
    for (const auto& name : names) spec.models.emplace_back().zoo = name;
  }
  spec.eval.rate_grid = grid;
  spec.eval.clean_err = false;
  const api::Report report = api::Runner(spec).run();
  // Index the report rows by zoo name for the per-method reduction.
  const auto rerr_of = [&](const std::string& name, std::size_t point) {
    for (const api::ModelReport& m : report.models) {
      if (m.name == name) return 100.0 * m.points[point].result.mean_rerr;
    }
    throw std::logic_error("fig7: model missing from report: " + name);
  };

  std::vector<std::string> headers{"Method (best model per p)"};
  for (double p : grid) {
    headers.push_back("p=" + TablePrinter::fmt(100 * p, 100 * p < 0.01 ? 3 : 2) +
                      "%");
  }
  TablePrinter t(headers);
  for (const auto& [label, names] : methods) {
    std::vector<std::string> row{label};
    for (std::size_t i = 0; i < grid.size(); ++i) {
      double lo = 1e9;
      for (const auto& name : names) lo = std::min(lo, rerr_of(name, i));
      row.push_back(TablePrinter::fmt(lo, 2));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Fig. 7", "best-per-method RErr vs p on all three datasets");

  const MethodGroups c10{
      {"Normal", {"c10_normal"}},
      {"RQuant", {"c10_rquant"}},
      {"+Clipping", {"c10_clip300", "c10_clip200", "c10_clip150", "c10_clip100"}},
      {"+RandBET",
       {"c10_randbet015_p1", "c10_randbet01_p15", "c10_randbet015_p1_m4"}}};
  const MethodGroups c100{
      {"RQuant", {"c100_rquant"}},
      {"+Clipping", {"c100_clip015"}},
      {"+RandBET", {"c100_randbet015_p05"}}};
  const MethodGroups mnist{
      {"RQuant", {"mnist_rquant"}},
      {"+Clipping", {"mnist_clip01"}},
      {"+RandBET", {"mnist_randbet01_p5", "mnist_randbet01_p10"}}};

  std::vector<std::string> all;
  for (const auto& group : {c10, c100, mnist}) {
    for (const auto& [label, names] : group) {
      all.insert(all.end(), names.begin(), names.end());
    }
  }
  zoo::ensure(all);

  sweep("CIFAR10 analog (RErr %, m=8/4):", c10, c10_p_grid());
  sweep("CIFAR100 analog (RErr %):", c100, c100_p_grid());
  sweep("MNIST analog (RErr %):", mnist, mnist_p_grid());

  std::printf(
      "Paper shape: method ordering Normal < RQuant < +Clipping < +RandBET "
      "at every p; MNIST tolerates ~10x higher rates; CIFAR100 is tighter "
      "than CIFAR10.\n");
  return 0;
}
