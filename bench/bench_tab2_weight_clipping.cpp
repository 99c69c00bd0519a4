// Tab. 2: weight clipping sweep with confidences, plus the label smoothing
// control that destroys the effect (the logit-margin mechanism).
#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Tab. 2", "weight clipping & label smoothing (CIFAR10 analog)");

  const std::vector<std::string> clip{"c10_rquant", "c10_clip300",
                                      "c10_clip200", "c10_clip150", "c10_clip100"};
  const std::vector<std::string> ls{"c10_clip200_ls", "c10_clip150_ls"};
  std::vector<std::string> all = clip;
  all.insert(all.end(), ls.begin(), ls.end());
  zoo::ensure(all);

  TablePrinter t({"Model", "Err (%)", "Conf (%)", "Conf p=1% (%)",
                  "RErr p=0.1% (%)", "RErr p=1% (%)"});
  auto add = [&](const std::string& name) {
    const api::ModelEntry& s = zoo::spec(name);
    Sequential& model = zoo::get(name);
    // Clean confidence on the quantized deployment weights.
    const auto params = model.params();
    WeightStash stash;
    stash.save(params);
    NetQuantizer q(s.quant);
    q.write_dequantized(q.quantize(params), params);
    const EvalResult clean = evaluate(model, zoo::dataset(s.dataset, "test"));
    stash.restore(params);

    const RobustResult r01 = rerr(name, 0.001);
    const RobustResult r1 = rerr(name, 0.01);
    t.add_row({s.label, TablePrinter::fmt(100.0 * clean.error, 2),
               TablePrinter::fmt(100.0 * clean.confidence, 2),
               TablePrinter::fmt(100.0 * r1.mean_confidence, 2),
               fmt_rerr(r01), fmt_rerr(r1)});
  };
  for (const auto& name : clip) add(name);
  t.add_separator();
  for (const auto& name : ls) add(name);
  t.print();
  std::printf(
      "\nPaper shape: smaller wmax -> RErr at p=1%% falls sharply, clean Err "
      "creeps up, confidence gap (clean vs p=1%%) closes; label smoothing "
      "(+LS) keeps clean Err but forfeits most robustness.\n");
  return 0;
}
