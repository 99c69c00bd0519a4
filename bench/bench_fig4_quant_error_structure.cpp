// Fig. 4: structure of bit-error-induced weight perturbations under the
// different fixed-point quantization schemes (original vs perturbed weights
// at p = 2.5%). We summarize the scatter plots as error statistics.
#include <cmath>

#include "bench_util.h"

int main() {
  using namespace ber;
  using namespace ber::bench;
  banner("Fig. 4", "weight error structure per quantization scheme, p=2.5%");

  zoo::ensure({"c10_rquant", "c10_clip100"});

  struct Case {
    std::string label;
    std::string model;
    QuantScheme scheme;
  };
  const std::vector<Case> cases{
      {"Global, qmax=1, m=8", "c10_rquant", QuantScheme::global_symmetric(8)},
      {"Per-layer (=Normal), m=8", "c10_rquant", QuantScheme::normal(8)},
      {"+Asymmetric (unsigned, round), m=8", "c10_rquant",
       QuantScheme::rquant(8)},
      {"+Clipping 0.1, m=4", "c10_clip100", QuantScheme::rquant(4)}};

  TablePrinter t({"Scheme", "mean |dw|", "max |dw|", "rel. |dw| (of range)",
                  "weights changed (%)"});
  for (const Case& c : cases) {
    Sequential& model = zoo::get(c.model);
    NetQuantizer quantizer(c.scheme);
    const auto params = model.params();
    NetSnapshot clean = quantizer.quantize(params);
    NetSnapshot pert = clean;
    BitErrorConfig cfg;
    cfg.p = 0.025;
    RandomBitErrorModel(cfg, /*chip=*/77).apply(pert, 0);

    double sum_abs = 0.0, max_abs = 0.0, sum_rel = 0.0;
    long changed = 0, total = 0;
    for (std::size_t i = 0; i < clean.tensors.size(); ++i) {
      std::vector<float> wc(clean.tensors[i].size()), wp(pert.tensors[i].size());
      dequantize(clean.tensors[i], wc);
      dequantize(pert.tensors[i], wp);
      const float range = std::max(
          1e-12f, clean.tensors[i].range.qmax - clean.tensors[i].range.qmin);
      for (std::size_t j = 0; j < wc.size(); ++j) {
        const double d = std::abs(wp[j] - wc[j]);
        sum_abs += d;
        sum_rel += d / range;
        max_abs = std::max(max_abs, d);
        if (d > 0) ++changed;
        ++total;
      }
    }
    t.add_row({c.label, TablePrinter::fmt(sum_abs / total, 5),
               TablePrinter::fmt(max_abs, 3),
               TablePrinter::fmt(sum_rel / total, 5),
               TablePrinter::fmt(100.0 * changed / total, 1)});
  }
  t.print();
  std::printf(
      "\nPaper shape: global quantization has the largest absolute errors "
      "(MSB flip ~ qmax over the whole net); per-layer shrinks them; "
      "clipping shrinks absolute but NOT relative errors (the scale "
      "argument of Sec. 4.2).\n");
  return 0;
}
