// Fig. 10: redundancy metrics — why clipping helps. Clipped models use more
// of their weight range (weight relevance up, zero-weight fraction down) and
// suffer smaller relative weight damage under BErr_p.
#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Fig. 10", "redundancy metrics of clipping / RandBET (p=1%)");

  const std::vector<std::string> models{"c10_rquant", "c10_randbet_noclip_p1",
                                        "c10_clip150", "c10_clip100"};
  zoo::ensure(models);

  TablePrinter t({"Model", "rel. abs error", "weight relevance",
                  "ReLU relevance", "frac. (near-)zero w", "max |w|"});
  for (const auto& name : models) {
    const api::ModelEntry& s = zoo::spec(name);
    Sequential& model = zoo::get(name);
    const RedundancyStats stats = redundancy_stats(
        model, s.quant, zoo::dataset(s.dataset, "rerr"), 0.01);
    t.add_row({s.label, TablePrinter::fmt(stats.rel_abs_error, 4),
               TablePrinter::fmt(stats.weight_relevance, 3),
               TablePrinter::fmt(stats.relu_relevance, 3),
               TablePrinter::fmt(stats.frac_zero, 3),
               TablePrinter::fmt(stats.max_abs_weight, 3)});
  }
  t.print();
  std::printf(
      "\nPaper shape (Fig. 10 bottom right): clipping increases weight "
      "relevance and decreases relative abs error; RandBET alone mostly "
      "stretches the tails instead.\n");
  return 0;
}
