// Tab. 10: BatchNorm is not robust to weight bit errors — unless its batch
// statistics are recomputed at test time; GroupNorm is the robust default.
#include "bench_util.h"

namespace {

using namespace ber;
using namespace ber::bench;

// RErr with BN layers optionally switched to batch statistics at eval.
RobustResult rerr_bn(const std::string& name, double p, bool batch_stats) {
  const api::ModelEntry& s = zoo::spec(name);
  Sequential& model = zoo::get(name);
  model.visit([&](Layer& l) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&l)) {
      bn->set_use_batch_stats_in_eval(batch_stats);
    }
  });
  BitErrorConfig cfg;
  cfg.p = p;
  const RobustResult r =
      RobustnessEvaluator(model, s.quant)
          .run(RandomBitErrorModel(cfg, 1000), zoo::dataset(s.dataset, "rerr"),
               zoo::default_chips());
  model.visit([&](Layer& l) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&l)) {
      bn->set_use_batch_stats_in_eval(false);
    }
  });
  return r;
}

}  // namespace

int main() {
  banner("Tab. 10", "BatchNorm vs GroupNorm robustness");

  zoo::ensure({"c10_rquant", "c10_clip150", "c10_rquant_bn", "c10_clip015_bn"});

  TablePrinter t({"Model", "Err (%)", "RErr p=0.1%", "RErr p=0.5%"});
  for (const std::string name : {"c10_rquant", "c10_clip150"}) {
    t.add_row({"GN " + zoo::spec(name).label,
               TablePrinter::fmt(clean_err_pct(name), 2),
               fmt_rerr(rerr(name, 0.001)), fmt_rerr(rerr(name, 0.005))});
  }
  t.add_separator();
  for (const std::string name : {"c10_rquant_bn", "c10_clip015_bn"}) {
    t.add_row({zoo::spec(name).label + " (accumulated stats)",
               TablePrinter::fmt(clean_err_pct(name), 2),
               fmt_rerr(rerr_bn(name, 0.001, false)),
               fmt_rerr(rerr_bn(name, 0.005, false))});
  }
  t.add_separator();
  for (const std::string name : {"c10_rquant_bn", "c10_clip015_bn"}) {
    t.add_row({zoo::spec(name).label + " (batch stats at test)",
               TablePrinter::fmt(clean_err_pct(name), 2),
               fmt_rerr(rerr_bn(name, 0.001, true)),
               fmt_rerr(rerr_bn(name, 0.005, true))});
  }
  t.print();
  std::printf(
      "\nPaper shape: BN with accumulated statistics degrades much faster "
      "than GN under bit errors; recomputing batch statistics at test time "
      "recovers most of it (the running stats don't account for perturbed "
      "weights).\n");
  return 0;
}
