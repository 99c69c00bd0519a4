// Tab. 17 + App. C.2: the Prop. 1 guarantee — analytic bound table plus an
// empirical stress test with a large number of bit-error patterns.
#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Tab. 17 / Prop. 1", "guarantee on the RErr estimate");

  std::printf("Analytic deviation bound eps(n, l, delta=0.01):\n");
  TablePrinter bound({"n (test examples)", "l (patterns)", "eps (%)"});
  for (const auto& [n, l] : std::vector<std::pair<long, long>>{
           {10000, 1000000}, {100000, 1000000}, {500, 50}, {500, 1000}}) {
    bound.add_row({std::to_string(n), std::to_string(l),
                   TablePrinter::fmt(100.0 * prop1_epsilon(n, l, 0.01), 2)});
  }
  bound.print();
  std::printf("(paper: n=1e4, l=1e6 -> 4.1%%; n=1e5 -> 1.7%%)\n\n");

  zoo::ensure({"c10_clip100"});
  Sequential& model = zoo::get("c10_clip100");
  const api::ModelEntry& s = zoo::spec("c10_clip100");
  const Dataset& data = zoo::dataset(s.dataset, "rerr");
  BitErrorConfig cfg;
  cfg.p = 0.01;

  std::printf("Empirical stress test (Clipping_0.1, p=1%%):\n");
  TablePrinter t({"l (patterns)", "RErr (%)", "std (%)"});
  for (int l : {5, 20, fast_mode() ? 40 : 100}) {
    const RobustResult r = RobustnessEvaluator(model, s.quant)
                               .run(RandomBitErrorModel(cfg, 31000), data, l);
    t.add_row({std::to_string(l), TablePrinter::fmt(100.0 * r.mean_rerr, 2),
               TablePrinter::fmt(100.0 * r.std_rerr, 2)});
  }
  t.print();
  std::printf(
      "\nPaper shape (Tab. 17): the RErr estimate is stable in l — going "
      "from a handful of patterns to many changes the mean marginally, only "
      "tightening the spread.\n");
  return 0;
}
