// Uniform random bit errors BErr_p (Sec. 3) as a FaultModel.
//
// Trial t is the chip with seed `seed_base + t`. The model is persistent:
// fault_list() builds the sparse ChipFaultList (biterror/injector.h) of a
// chip once at the top of a rate grid and filters down — the faults at
// p' <= p are the subset with u < p'. Single-rate injection (apply) is the
// same list built and applied at config().p. Voltages map to rates through
// the default Fig. 1 curve (SramEnergyModel{}), the same curve the serving
// planner prices energy on.
//
// corrupt_codeword() extends the same faults to SECDED codewords, mapping
// cell coordinates (codeword index, bit 0..71) through the same monotone
// hash — this is what EccProtectedModel composes with for a persistent,
// typed ECC-space fault scenario.
#pragma once

#include "biterror/injector.h"
#include "ecc/secded.h"
#include "faults/fault_model.h"

namespace ber {

class RandomBitErrorModel : public FaultModel {
 public:
  explicit RandomBitErrorModel(const BitErrorConfig& config,
                               std::uint64_t seed_base = 1000);

  const BitErrorConfig& config() const { return config_; }
  std::uint64_t seed_base() const { return seed_base_; }

  std::string describe() const override;
  std::size_t apply(NetSnapshot& snap, std::uint64_t trial) const override;

  // p_max may exceed config().p: pass the top of a sweep grid.
  bool persistent() const override { return true; }
  ChipFaultList fault_list(const NetSnapshot& layout, std::uint64_t trial,
                           double p_max) const override;
  double rate_at_voltage(double v) const override;

  // Injects trial `trial`'s faults into a 72-bit SECDED codeword memory
  // (data + check bits); word_index is the codeword's position.
  void corrupt_codeword(SecdedWord& word, std::uint64_t word_index,
                        std::uint64_t trial) const;

 private:
  BitErrorConfig config_;
  std::uint64_t seed_base_;
};

}  // namespace ber
