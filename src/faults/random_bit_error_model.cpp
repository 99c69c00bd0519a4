#include "faults/random_bit_error_model.h"

#include <cstdio>

#include "energy/energy_model.h"

namespace ber {

namespace {

// Reads / writes bit `bit` (0..63 data, 64..71 check) of a SECDED codeword.
bool codeword_bit(const SecdedWord& word, int bit) {
  if (bit < 64) return (word.data >> bit) & 1u;
  return (word.check >> (bit - 64)) & 1u;
}

void apply_codeword_fault(SecdedWord& word, int bit, FaultType type) {
  const bool stored = codeword_bit(word, bit);
  switch (type) {
    case FaultType::kFlip:
      secded_flip(word, bit);
      return;
    case FaultType::kSet1:
      if (!stored) secded_flip(word, bit);
      return;
    case FaultType::kSet0:
      if (stored) secded_flip(word, bit);
      return;
  }
}

}  // namespace

RandomBitErrorModel::RandomBitErrorModel(const BitErrorConfig& config,
                                         std::uint64_t seed_base)
    : config_(config), seed_base_(seed_base) {
  config_.validate();
}

std::string RandomBitErrorModel::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "BErr(p=%.4g%%, flip/set1/set0=%g/%g/%g)",
                100.0 * config_.p, config_.flip_fraction,
                config_.set1_fraction, config_.set0_fraction);
  return buf;
}

std::size_t RandomBitErrorModel::apply(NetSnapshot& snap,
                                       std::uint64_t trial) const {
  return fault_list(snap, trial, config_.p).apply(snap, config_.p);
}

ChipFaultList RandomBitErrorModel::fault_list(const NetSnapshot& layout,
                                              std::uint64_t trial,
                                              double p_max) const {
  return ChipFaultList(layout, config_, seed_base_ + trial, p_max);
}

double RandomBitErrorModel::rate_at_voltage(double v) const {
  return SramEnergyModel{}.bit_error_rate(v);
}

void RandomBitErrorModel::corrupt_codeword(SecdedWord& word,
                                           std::uint64_t word_index,
                                           std::uint64_t trial) const {
  const std::uint64_t chip_seed = seed_base_ + trial;
  for (int bit = 0; bit < 72; ++bit) {
    if (!cell_faulty(chip_seed, word_index, static_cast<std::uint64_t>(bit),
                     config_.p)) {
      continue;
    }
    apply_codeword_fault(word, bit,
                         fault_type_at(config_, chip_seed, word_index,
                                       static_cast<std::uint64_t>(bit)));
  }
}

}  // namespace ber
