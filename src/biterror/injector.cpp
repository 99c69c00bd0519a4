#include "biterror/injector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/hash.h"
#include "core/parallel.h"
#include "obs/forensics.h"

namespace ber {

void BitErrorConfig::validate() const {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("BitErrorConfig: p must be in [0,1]");
  }
  if (flip_fraction < 0.0 || set1_fraction < 0.0 || set0_fraction < 0.0) {
    throw std::invalid_argument(
        "BitErrorConfig: fault-type fractions must be non-negative");
  }
  const double sum = flip_fraction + set1_fraction + set0_fraction;
  if (std::abs(sum - 1.0) > 1e-6) {
    throw std::invalid_argument(
        "BitErrorConfig: fault-type fractions must sum to 1");
  }
}

double expected_bit_errors(double p, int bits, std::size_t weights) {
  return p * bits * static_cast<double>(weights);
}

bool cell_faulty(std::uint64_t chip_seed, std::uint64_t weight_index,
                 std::uint64_t bit, double p) {
  return hash_uniform(chip_seed, weight_index, bit) < p;
}

FaultType fault_type_at(const BitErrorConfig& config, std::uint64_t chip_seed,
                        std::uint64_t weight_index, std::uint64_t bit) {
  const double u = hash_uniform2(chip_seed, weight_index, bit);
  if (u < config.flip_fraction) return FaultType::kFlip;
  if (u < config.flip_fraction + config.set1_fraction) return FaultType::kSet1;
  return FaultType::kSet0;
}

std::uint16_t apply_fault(std::uint16_t code, int bit, FaultType type) {
  const std::uint16_t mask = static_cast<std::uint16_t>(1u << bit);
  switch (type) {
    case FaultType::kFlip:
      return code ^ mask;
    case FaultType::kSet1:
      return code | mask;
    case FaultType::kSet0:
      return static_cast<std::uint16_t>(code & ~mask);
  }
  return code;
}

namespace {

// Elements per shard. Small enough that a single dominant conv tensor splits
// into many independent work items, large enough that per-shard overhead is
// noise. Boundaries depend only on the layout, so lists are identical for
// every thread count.
constexpr std::size_t kShardElems = 1 << 16;

}  // namespace

void ChipFaultList::init_layout(const NetSnapshot& layout) {
  tensor_sizes_.reserve(layout.tensors.size());
  tensor_bits_.reserve(layout.tensors.size());
  for (std::size_t t = 0; t < layout.tensors.size(); ++t) {
    const std::size_t size = layout.tensors[t].codes.size();
    tensor_sizes_.push_back(size);
    tensor_bits_.push_back(layout.tensors[t].scheme.bits);
    for (std::size_t b = 0; b < size; b += kShardElems) {
      shards_.push_back({static_cast<std::uint32_t>(t),
                         static_cast<std::uint32_t>(b),
                         static_cast<std::uint32_t>(
                             std::min(size, b + kShardElems)),
                         {}});
    }
  }
}

ChipFaultList::ChipFaultList(const NetSnapshot& layout,
                             const BitErrorConfig& config,
                             std::uint64_t chip_seed, double p_max)
    : chip_seed_(chip_seed), p_max_(p_max) {
  config.validate();
  if (!(p_max >= 0.0 && p_max <= 1.0)) {
    throw std::invalid_argument("ChipFaultList: p_max must be in [0,1]");
  }
  init_layout(layout);
  std::size_t words = 0;
  for (std::size_t size : tensor_sizes_) words += size;
  // The sweep visits coordinates in the same (tensor, element, bit) order as
  // the scalar path; element-range shards keep that order under parallelism.
  parallel_for(static_cast<std::int64_t>(shards_.size()),
               intra_op_threads(static_cast<double>(words), kIntraOpMinFloats),
               [&](std::int64_t s) {
                 Shard& shard = shards_[static_cast<std::size_t>(s)];
                 const QuantizedTensor& qt = layout.tensors[shard.tensor];
                 const int bits = qt.scheme.bits;
                 const std::uint64_t base = layout.offsets[shard.tensor];
                 for (std::uint32_t i = shard.begin; i < shard.end; ++i) {
                   const std::uint64_t widx = base + i;
                   for (int j = 0; j < bits; ++j) {
                     const double u = hash_uniform(
                         chip_seed, widx, static_cast<std::uint64_t>(j));
                     if (u >= p_max) continue;
                     const FaultType type = fault_type_at(
                         config, chip_seed, widx,
                         static_cast<std::uint64_t>(j));
                     shard.faults.push_back({i, static_cast<std::uint8_t>(j),
                                             static_cast<std::uint8_t>(type),
                                             u});
                   }
                 }
               });
}

ChipFaultList::ChipFaultList(const NetSnapshot& layout,
                             std::vector<std::vector<ChipFault>> per_tensor,
                             double p_max, std::uint64_t tag)
    : chip_seed_(tag), p_max_(p_max) {
  if (per_tensor.size() != layout.tensors.size()) {
    throw std::invalid_argument("ChipFaultList: per-tensor count mismatch");
  }
  init_layout(layout);
  for (std::size_t t = 0; t < per_tensor.size(); ++t) {
    for (std::size_t k = 0; k + 1 < per_tensor[t].size(); ++k) {
      if (per_tensor[t][k].index > per_tensor[t][k + 1].index) {
        throw std::invalid_argument(
            "ChipFaultList: per-tensor faults must be in ascending element "
            "order");
      }
    }
    if (!per_tensor[t].empty() &&
        per_tensor[t].back().index >= tensor_sizes_[t]) {
      throw std::invalid_argument(
          "ChipFaultList: fault element index outside tensor");
    }
    for (const ChipFault& f : per_tensor[t]) {
      if (f.bit >= tensor_bits_[t]) {
        throw std::invalid_argument(
            "ChipFaultList: fault bit outside the tensor's code width");
      }
    }
  }
  const auto by_index = [](const ChipFault& f, std::uint32_t b) {
    return f.index < b;
  };
  for (Shard& shard : shards_) {
    const std::vector<ChipFault>& src = per_tensor[shard.tensor];
    const auto lo =
        std::lower_bound(src.begin(), src.end(), shard.begin, by_index);
    const auto hi = std::lower_bound(lo, src.end(), shard.end, by_index);
    shard.faults.assign(lo, hi);
  }
}

std::size_t ChipFaultList::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.faults.size();
  return n;
}

std::size_t ChipFaultList::apply(NetSnapshot& snap, double p) const {
  if (p > p_max_) {
    throw std::invalid_argument("ChipFaultList::apply: p exceeds p_max");
  }
  if (snap.tensors.size() != tensor_sizes_.size()) {
    throw std::invalid_argument("ChipFaultList::apply: layout mismatch");
  }
  for (std::size_t t = 0; t < snap.tensors.size(); ++t) {
    if (snap.tensors[t].codes.size() != tensor_sizes_[t] ||
        snap.tensors[t].scheme.bits != tensor_bits_[t]) {
      throw std::invalid_argument("ChipFaultList::apply: layout mismatch");
    }
  }
  // Forensics hook (obs/forensics.h): one relaxed load when disabled. When
  // recording, flips collect into per-shard vectors (race-free for any
  // thread count) and append to the ledger in a single batch.
  const bool forensics = obs::forensics_recording();
  std::vector<std::vector<obs::FlipRecord>> flip_recs;
  if (forensics) flip_recs.resize(shards_.size());
  std::vector<std::size_t> changed(shards_.size(), 0);
  parallel_for(
      static_cast<std::int64_t>(shards_.size()),
      intra_op_threads(static_cast<double>(size()), kIntraOpMinFloats),
      [&](std::int64_t s) {
        const Shard& shard = shards_[static_cast<std::size_t>(s)];
        const std::vector<ChipFault>& faults = shard.faults;
        QuantizedTensor& qt = snap.tensors[shard.tensor];
        const int width = tensor_bits_[shard.tensor];
        std::size_t n_changed = 0;
        // Entries are grouped by element index; apply each group to its code
        // word once. Shards own disjoint element ranges, so writes are
        // race-free.
        for (std::size_t k = 0; k < faults.size();) {
          const std::uint32_t idx = faults[k].index;
          const std::uint16_t before = qt.codes[idx];
          std::uint16_t code = before;
          for (; k < faults.size() && faults[k].index == idx; ++k) {
            if (faults[k].u >= p) continue;
            const std::uint16_t prev = code;
            code = apply_fault(code, faults[k].bit,
                               static_cast<FaultType>(faults[k].type));
            if (forensics) {
              flip_recs[static_cast<std::size_t>(s)].push_back(
                  {0, shard.tensor, idx, faults[k].bit,
                   static_cast<std::uint8_t>(width),
                   static_cast<std::uint8_t>(
                       obs::classify_bit(faults[k].bit, width)),
                   prev, code});
            }
          }
          if (code != before) {
            qt.codes[idx] = code;
            ++n_changed;
          }
        }
        changed[static_cast<std::size_t>(s)] = n_changed;
      });
  std::size_t total = 0;
  for (std::size_t c : changed) total += c;
  if (forensics) {
    std::vector<obs::FlipRecord> flat;
    for (auto& v : flip_recs) {
      flat.insert(flat.end(), v.begin(), v.end());
    }
    obs::fault_ledger().record_apply(std::move(flat), total);
  }
  return total;
}

std::size_t ChipFaultList::apply_delta(NetSnapshot& cur,
                                       const NetSnapshot& base, double p_from,
                                       double p_to,
                                       std::vector<ChangedCode>* changed) const {
  if (p_from > p_max_ || p_to > p_max_) {
    throw std::invalid_argument("ChipFaultList::apply_delta: p exceeds p_max");
  }
  if (cur.tensors.size() != tensor_sizes_.size() ||
      base.tensors.size() != tensor_sizes_.size()) {
    throw std::invalid_argument("ChipFaultList::apply_delta: layout mismatch");
  }
  for (std::size_t t = 0; t < cur.tensors.size(); ++t) {
    if (cur.tensors[t].codes.size() != tensor_sizes_[t] ||
        cur.tensors[t].scheme.bits != tensor_bits_[t] ||
        base.tensors[t].codes.size() != tensor_sizes_[t]) {
      throw std::invalid_argument(
          "ChipFaultList::apply_delta: layout mismatch");
    }
  }
  std::size_t faulted_at_to = 0;
  for (const Shard& shard : shards_) {
    const std::vector<ChipFault>& faults = shard.faults;
    QuantizedTensor& qt = cur.tensors[shard.tensor];
    const QuantizedTensor& bt = base.tensors[shard.tensor];
    for (std::size_t k = 0; k < faults.size();) {
      const std::uint32_t idx = faults[k].index;
      const std::uint16_t clean = bt.codes[idx];
      std::uint16_t code_from = clean;
      std::uint16_t code_to = clean;
      for (; k < faults.size() && faults[k].index == idx; ++k) {
        const int bit = faults[k].bit;
        const FaultType type = static_cast<FaultType>(faults[k].type);
        if (faults[k].u < p_from) code_from = apply_fault(code_from, bit, type);
        if (faults[k].u < p_to) code_to = apply_fault(code_to, bit, type);
      }
      if (code_to != clean) ++faulted_at_to;
      if (code_to != code_from) {
        qt.codes[idx] = code_to;
        if (changed != nullptr) changed->push_back({shard.tensor, idx});
      }
    }
  }
  return faulted_at_to;
}

std::size_t inject_random_bit_errors(NetSnapshot& snap,
                                     const BitErrorConfig& config,
                                     std::uint64_t chip_seed) {
  config.validate();
  std::size_t changed = 0;
  for (std::size_t t = 0; t < snap.tensors.size(); ++t) {
    QuantizedTensor& qt = snap.tensors[t];
    const int bits = qt.scheme.bits;
    const std::uint64_t base = snap.offsets[t];
    for (std::size_t i = 0; i < qt.codes.size(); ++i) {
      const std::uint64_t widx = base + i;
      std::uint16_t code = qt.codes[i];
      const std::uint16_t before = code;
      for (int j = 0; j < bits; ++j) {
        if (!cell_faulty(chip_seed, widx, static_cast<std::uint64_t>(j),
                         config.p)) {
          continue;
        }
        code = apply_fault(code, j,
                           fault_type_at(config, chip_seed, widx,
                                         static_cast<std::uint64_t>(j)));
      }
      if (code != before) {
        qt.codes[i] = code;
        ++changed;
      }
    }
  }
  return changed;
}

}  // namespace ber
