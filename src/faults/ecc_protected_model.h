// SECDED-protected weight memory (Sec. 1's hardware baseline) as a
// FaultModel.
//
// Eight 8-bit codes are packed per 64-bit data word and stored with their 8
// SECDED check bits; faults hit the full 72-bit codeword; decode corrects
// single-bit errors (and silently fails beyond — exactly the collapse the
// paper's intro quantifies) before the weights are deployed.
//
// Two fault sources:
//   * the built-in i.i.d. Bernoulli source (rate p, one RNG per trial drawn
//     over codeword bits in storage order) — reproduces the historical
//     bench_ecc_baseline streams exactly;
//   * composition with a RandomBitErrorModel's codeword faults (persistent
//     monotone faults with stuck-at type mixes reaching the check bits too).
#pragma once

#include <memory>

#include "faults/fault_model.h"
#include "faults/random_bit_error_model.h"

namespace ber {

class EccProtectedModel : public FaultModel {
 public:
  // Built-in Bernoulli fault source at per-bit rate `p`; trial t draws from
  // Rng(hash_mix(seed_base, t, 1)).
  explicit EccProtectedModel(double p, std::uint64_t seed_base = 7777);

  // Composes the SECDED memory with `inner`'s codeword faults. Throws
  // std::invalid_argument if inner is null.
  explicit EccProtectedModel(std::unique_ptr<RandomBitErrorModel> inner);

  std::string describe() const override;
  // Rejects layouts with codes wider than 8 bits (8 codes per data word).
  void validate_layout(const NetSnapshot& layout) const override;
  std::size_t apply(NetSnapshot& snap, std::uint64_t trial) const override;

 private:
  double p_ = 0.0;
  std::uint64_t seed_base_ = 7777;
  std::unique_ptr<RandomBitErrorModel> inner_;
};

}  // namespace ber
