// Fig. 6: effect of weight clipping on logits and confidences, clean vs
// under random bit errors (p = 1%). Clipped networks keep high confidence
// with far smaller degradation under bit errors.
#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Fig. 6", "logit/confidence distributions under clipping (p=1%)");

  const std::vector<std::string> models{"c10_rquant", "c10_clip150",
                                        "c10_randbet_noclip_p1"};
  zoo::ensure(models);

  TablePrinter t({"Model", "max |w|", "mean max-logit (clean)",
                  "logit gap (clean)", "Conf clean (%)", "Conf p=1% (%)"});
  for (const auto& name : models) {
    Sequential& model = zoo::get(name);
    const api::ModelEntry& s = zoo::spec(name);
    const Dataset& data = zoo::dataset(s.dataset, "rerr");

    // Clean statistics on the deployed (quantized) weights.
    const auto params = model.params();
    WeightStash stash;
    stash.save(params);
    NetQuantizer quantizer(s.quant);
    quantizer.write_dequantized(quantizer.quantize(params), params);
    const LogitStats clean = logit_stats(model, data);
    float wmax = 0.0f;
    for (Param* p : params) wmax = std::max(wmax, p->value.abs_max());
    stash.restore(params);

    const RobustResult pert = rerr(name, 0.01);
    t.add_row({s.label, TablePrinter::fmt(wmax, 3),
               TablePrinter::fmt(clean.mean_max_logit, 2),
               TablePrinter::fmt(clean.mean_logit_gap, 2),
               TablePrinter::fmt(100.0 * clean.mean_confidence, 2),
               TablePrinter::fmt(100.0 * pert.mean_confidence, 2)});
  }
  t.print();
  std::printf(
      "\nPaper shape (Fig. 6): clipping shrinks the weight range yet the "
      "network still reaches high clean confidence, and its confidence under "
      "bit errors degrades far less than the unclipped baseline.\n");
  return 0;
}
