#include "faults/adversarial_model.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "biterror/injector.h"
#include "core/hash.h"

namespace ber {

AdversarialBitErrorModel::AdversarialBitErrorModel(
    std::vector<std::vector<BitFlip>> trials, std::string label)
    : trials_(std::move(trials)), label_(std::move(label)) {
  if (trials_.empty()) {
    throw std::invalid_argument(
        "AdversarialBitErrorModel: need at least one flip set");
  }
}

std::string AdversarialBitErrorModel::describe() const {
  std::size_t lo = trials_[0].size(), hi = lo;
  for (const auto& t : trials_) {
    lo = std::min(lo, t.size());
    hi = std::max(hi, t.size());
  }
  char buf[128];
  if (lo == hi) {
    std::snprintf(buf, sizeof(buf), "AdvBErr(%s, trials=%zu, flips=%zu)",
                  label_.c_str(), trials_.size(), hi);
  } else {
    std::snprintf(buf, sizeof(buf), "AdvBErr(%s, trials=%zu, flips=%zu..%zu)",
                  label_.c_str(), trials_.size(), lo, hi);
  }
  return buf;
}

void AdversarialBitErrorModel::validate_layout(
    const NetSnapshot& layout) const {
  for (const auto& trial : trials_) {
    for (const BitFlip& f : trial) {
      if (f.tensor >= layout.tensors.size()) {
        throw std::invalid_argument(
            "AdversarialBitErrorModel: flip tensor index outside layout");
      }
      const QuantizedTensor& qt = layout.tensors[f.tensor];
      if (f.index >= qt.codes.size()) {
        throw std::invalid_argument(
            "AdversarialBitErrorModel: flip element index outside tensor");
      }
      if (f.bit >= qt.scheme.bits) {
        throw std::invalid_argument(
            "AdversarialBitErrorModel: flip bit outside the code width");
      }
    }
  }
}

std::size_t AdversarialBitErrorModel::apply(NetSnapshot& snap,
                                            std::uint64_t trial) const {
  // A flip set is a fault list of u = 0 flip cells applied at rate 1, so it
  // runs the one injection loop and lands in the same forensics ledger as
  // random injection (an adversarial campaign and its rate-matched random
  // control are directly comparable). The stable sort by element keeps the
  // bits of one word in the attack's order.
  std::vector<std::vector<ChipFault>> per_tensor(snap.tensors.size());
  for (const BitFlip& f : trials_[trial % trials_.size()]) {
    per_tensor.at(f.tensor).push_back(
        {f.index, f.bit, static_cast<std::uint8_t>(FaultType::kFlip), 0.0});
  }
  for (std::vector<ChipFault>& faults : per_tensor) {
    std::stable_sort(faults.begin(), faults.end(),
                     [](const ChipFault& a, const ChipFault& b) {
                       return a.index < b.index;
                     });
  }
  return ChipFaultList(snap, std::move(per_tensor), /*p_max=*/1.0)
      .apply(snap, 1.0);
}

std::vector<BitFlip> random_flip_set(const NetSnapshot& layout,
                                     std::size_t budget, std::uint64_t seed) {
  // Flat cell space: tensor-major, then element, then bit.
  std::uint64_t total = 0;
  for (const QuantizedTensor& qt : layout.tensors) {
    total += static_cast<std::uint64_t>(qt.codes.size()) * qt.scheme.bits;
  }
  if (budget > total) {
    throw std::invalid_argument(
        "random_flip_set: budget exceeds the number of cells");
  }
  // Rejection-sample distinct flat ids from the stateless hash stream —
  // deterministic in `seed` and independent of iteration platform.
  std::unordered_set<std::uint64_t> chosen;
  std::vector<BitFlip> out;
  out.reserve(budget);
  for (std::uint64_t draw = 0; out.size() < budget; ++draw) {
    const std::uint64_t id =
        hash_mix(seed, 0xAD5EC7ULL, draw) % total;
    if (!chosen.insert(id).second) continue;
    std::uint64_t rest = id;
    BitFlip f;
    for (std::size_t t = 0; t < layout.tensors.size(); ++t) {
      const QuantizedTensor& qt = layout.tensors[t];
      const std::uint64_t span =
          static_cast<std::uint64_t>(qt.codes.size()) * qt.scheme.bits;
      if (rest < span) {
        f.tensor = static_cast<std::uint32_t>(t);
        f.index = static_cast<std::uint32_t>(rest / qt.scheme.bits);
        f.bit = static_cast<std::uint8_t>(rest % qt.scheme.bits);
        break;
      }
      rest -= span;
    }
    out.push_back(f);
  }
  return out;
}

AdversarialBitErrorModel random_flip_model(const NetSnapshot& layout,
                                           std::size_t budget, int n_trials,
                                           std::uint64_t seed_base) {
  if (n_trials <= 0) {
    throw std::invalid_argument("random_flip_model: need n_trials > 0");
  }
  std::vector<std::vector<BitFlip>> trials;
  trials.reserve(static_cast<std::size_t>(n_trials));
  for (int t = 0; t < n_trials; ++t) {
    trials.push_back(random_flip_set(
        layout, budget, seed_base + static_cast<std::uint64_t>(t)));
  }
  return AdversarialBitErrorModel(std::move(trials), "random-control");
}

}  // namespace ber
