// Tab. 3 / Tab. 16: training on a fixed bit error pattern (PattBET) does not
// generalize — neither to lower rates of the same pattern nor to random
// patterns.
#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Tab. 3", "fixed-pattern bit error training fails to generalize");

  zoo::ensure({"c10_pattbet_p25", "c10_pattbet015_p25", "c10_randbet015_p1"});

  // Evaluation on the SAME fixed pattern the model trained on (pattern_seed
  // from the spec), at the training rate and at a lower rate (higher
  // voltage). The paper's striking result: lower rate can be WORSE.
  TablePrinter t({"Model", "fixed pattern p=1%", "fixed pattern p=2.5%",
                  "random patterns p=1%", "random patterns p=2.5%"});
  for (const std::string name : {"c10_pattbet_p25", "c10_pattbet015_p25"}) {
    const api::ModelEntry& s = zoo::spec(name);
    Sequential& model = zoo::get(name);
    const Dataset& data = zoo::dataset(s.dataset, "rerr");
    NetQuantizer quantizer(s.quant);

    auto fixed_pattern_rerr = [&](double p) {
      const auto params = model.params();
      WeightStash stash;
      stash.save(params);
      NetSnapshot snap = quantizer.quantize(params);
      BitErrorConfig cfg;
      cfg.p = p;
      RandomBitErrorModel(cfg, s.train.pattern_seed).apply(snap, 0);
      quantizer.write_dequantized(snap, params);
      const float err = evaluate(model, data).error;
      stash.restore(params);
      return 100.0 * err;
    };
    BitErrorConfig c1, c25;
    c1.p = 0.01;
    c25.p = 0.025;
    t.add_row({s.label, TablePrinter::fmt(fixed_pattern_rerr(0.01), 2),
               TablePrinter::fmt(fixed_pattern_rerr(0.025), 2),
               fmt_rerr(rerr(name, 0.01)), fmt_rerr(rerr(name, 0.025))});
  }
  // RandBET reference row: random-pattern training generalizes.
  t.add_separator();
  t.add_row({zoo::spec("c10_randbet015_p1").label, "-", "-",
             fmt_rerr(rerr("c10_randbet015_p1", 0.01)),
             fmt_rerr(rerr("c10_randbet015_p1", 0.025))});
  t.print();
  std::printf(
      "\nPaper shape: PattBET looks fine on its own pattern at the trained "
      "rate, degrades at LOWER rates of the same pattern (subset!), and "
      "collapses on random patterns; RandBET stays flat.\n");
  return 0;
}
