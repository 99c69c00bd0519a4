#include "quant/net_quantizer.h"

#include <stdexcept>

#include "nn/code_compute.h"
#include "nn/sequential.h"

namespace ber {

NetSnapshot NetQuantizer::quantize(const std::vector<Param*>& params) const {
  NetSnapshot snap;
  snap.tensors.reserve(params.size());
  snap.offsets.reserve(params.size());

  QuantRange global_range;
  if (scheme_.scope == RangeScope::kGlobal) {
    // One range across the whole network.
    if (scheme_.asymmetric) {
      float lo = 0.0f, hi = 0.0f;
      bool first = true;
      for (Param* p : params) {
        for (long i = 0; i < p->value.numel(); ++i) {
          const float v = p->value[i];
          if (first) {
            lo = hi = v;
            first = false;
          } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
        }
      }
      if (hi - lo < 1e-8f) hi = lo + 1e-8f;
      global_range = {lo, hi};
    } else {
      float m = 0.0f;
      for (Param* p : params) m = std::max(m, p->value.abs_max());
      if (m < 1e-8f) m = 1e-8f;
      global_range = {-m, m};
    }
  }

  std::size_t offset = 0;
  for (Param* p : params) {
    const auto values = std::span<const float>(
        p->value.data(), static_cast<std::size_t>(p->value.numel()));
    QuantizedTensor qt =
        scheme_.scope == RangeScope::kGlobal
            ? ber::quantize(values, scheme_, global_range)
            : ber::quantize(values, scheme_);
    snap.offsets.push_back(offset);
    offset += qt.size();
    snap.tensors.push_back(std::move(qt));
  }
  return snap;
}

void NetQuantizer::write_dequantized(const NetSnapshot& snap,
                                     const std::vector<Param*>& params) const {
  if (snap.tensors.size() != params.size()) {
    throw std::invalid_argument("write_dequantized: param count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    dequantize(snap.tensors[i],
               std::span<float>(params[i]->value.data(),
                                static_cast<std::size_t>(params[i]->value.numel())));
  }
}

namespace {

// Mirrors Sequential::params() exactly: iterate layers in order, recursing
// into nested containers, and take each leaf's params() in order. Any
// change to params() traversal must be reflected here — deploy_snapshot
// pairs snapshot tensors with slots positionally.
void collect_slots(Sequential& seq, std::vector<ParamSlot>& out) {
  for (std::size_t i = 0; i < seq.size(); ++i) {
    Layer& l = seq.layer(i);
    if (auto* nested = dynamic_cast<Sequential*>(&l)) {
      collect_slots(*nested, out);
      continue;
    }
    if (auto* res = dynamic_cast<Residual*>(&l)) {
      collect_slots(res->body(), out);
      continue;
    }
    auto* cc = dynamic_cast<CodeComputeLayer*>(&l);
    for (Param* p : l.params()) {
      out.push_back(
          {p, cc != nullptr && p->kind == ParamKind::kWeight ? cc : nullptr});
    }
  }
}

}  // namespace

std::vector<ParamSlot> param_slots(Sequential& model) {
  std::vector<ParamSlot> slots;
  collect_slots(model, slots);
  return slots;
}

void deploy_snapshot(const NetSnapshot& snap,
                     const std::vector<ParamSlot>& slots, bool on_codes) {
  if (snap.tensors.size() != slots.size()) {
    throw std::invalid_argument("deploy_snapshot: slot count mismatch");
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const QuantizedTensor& qt = snap.tensors[i];
    const ParamSlot& slot = slots[i];
    if (on_codes && slot.code_layer != nullptr) {
      slot.code_layer->adopt_weight_codes(qt);  // also refreshes the mirror
      continue;
    }
    if (slot.code_layer != nullptr) slot.code_layer->release_weight_codes();
    dequantize(qt, std::span<float>(
                       slot.param->value.data(),
                       static_cast<std::size_t>(slot.param->value.numel())));
  }
}

void WeightStash::save(const std::vector<Param*>& params) {
  saved_.clear();
  saved_.reserve(params.size());
  for (Param* p : params) saved_.push_back(p->value);
}

void WeightStash::restore(const std::vector<Param*>& params) const {
  if (saved_.size() != params.size()) {
    throw std::invalid_argument("WeightStash::restore: param count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = saved_[i];
  }
}

}  // namespace ber
