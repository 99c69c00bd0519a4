#include "eval/redundancy.h"

#include <cmath>

#include "biterror/injector.h"
#include "nn/activation.h"
#include "quant/net_quantizer.h"

namespace ber {

RedundancyStats redundancy_stats(Sequential& model, const QuantScheme& scheme,
                                 const Dataset& probe, double p,
                                 std::uint64_t chip_seed) {
  RedundancyStats stats;
  const auto params = model.params();

  // Weight statistics.
  double sum_abs = 0.0;
  double max_abs = 0.0;
  long total = 0, zeros = 0;
  for (Param* prm : params) {
    for (long i = 0; i < prm->value.numel(); ++i) {
      sum_abs += std::abs(prm->value[i]);
      max_abs = std::max(max_abs, static_cast<double>(std::abs(prm->value[i])));
    }
    total += prm->value.numel();
  }
  for (Param* prm : params) {
    const double thresh = 1e-3 * max_abs;
    for (long i = 0; i < prm->value.numel(); ++i) {
      if (std::abs(prm->value[i]) < thresh) ++zeros;
    }
  }
  stats.max_abs_weight = max_abs;
  stats.weight_relevance =
      max_abs > 0.0 ? sum_abs / (max_abs * static_cast<double>(total)) : 0.0;
  stats.frac_zero = static_cast<double>(zeros) / static_cast<double>(total);

  // Relative absolute error under BErr_p.
  NetQuantizer quantizer(scheme);
  NetSnapshot clean = quantizer.quantize(params);
  NetSnapshot perturbed = clean;
  BitErrorConfig bec;
  bec.p = p;
  ChipFaultList(perturbed, bec, chip_seed, p).apply(perturbed, p);
  double err_sum = 0.0;
  long err_count = 0;
  for (std::size_t t = 0; t < clean.tensors.size(); ++t) {
    std::vector<float> w_clean(clean.tensors[t].size());
    std::vector<float> w_pert(perturbed.tensors[t].size());
    dequantize(clean.tensors[t], w_clean);
    dequantize(perturbed.tensors[t], w_pert);
    const float range = std::max(
        1e-12f, clean.tensors[t].range.qmax - clean.tensors[t].range.qmin);
    for (std::size_t i = 0; i < w_clean.size(); ++i) {
      err_sum += std::abs(w_pert[i] - w_clean[i]) / range;
      ++err_count;
    }
  }
  stats.rel_abs_error = err_count > 0 ? err_sum / err_count : 0.0;

  // ReLU relevance: run a probe batch and read the final ReLU's activity.
  Tensor images;
  std::vector<int> labels;
  probe.batch(0, std::min<long>(probe.size(), 200), images, labels);
  model.forward(images, /*training=*/false);
  ReLU* last_relu = nullptr;
  model.visit([&](Layer& l) {
    if (auto* r = dynamic_cast<ReLU*>(&l)) last_relu = r;
  });
  stats.relu_relevance =
      last_relu != nullptr ? last_relu->last_active_fraction() : 0.0;
  return stats;
}

}  // namespace ber
