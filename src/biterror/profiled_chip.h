// Synthetic "profiled chip" error maps (Fig. 3 / Fig. 8 / Tab. 5).
//
// The paper evaluates generalization on bit error maps profiled from real
// SRAM arrays; those maps have structure the uniform model lacks:
//   * persistence: the faulty cells at a higher voltage are a subset of the
//     faulty cells at any lower voltage;
//   * spatial bias: some chips (chip 2) fail along memory columns;
//   * direction bias: 0-to-1 flips can dominate 1-to-0 flips.
// We reproduce all three. Each cell of a rows x cols array owns a fixed
// uniform vulnerability u; the cell is faulty at normalized voltage v iff
// u < p_model(v) where p_model is the Fig. 1 rate curve. A fraction of
// columns is "vulnerable" (process variation along bitlines): their cells
// fail at column_boost times the base rate, producing the column-aligned
// stripes of Fig. 3 (right). The chip's measured rate is therefore slightly
// above the base curve — as with real profiled chips, benches report the
// measured rate.
//
// Weights are mapped linearly onto the array (bit b of global weight w goes
// to cell (offset + w*m + b) mod (rows*cols)); varying `offset` simulates
// different weight-to-memory mappings as in Tab. 5.
#pragma once

#include <cstdint>

#include "biterror/injector.h"
#include "energy/energy_model.h"
#include "quant/net_quantizer.h"

namespace ber {

struct ProfiledChipConfig {
  long rows = 2048;
  long cols = 128;
  std::uint64_t seed = 1;
  double vulnerable_column_fraction = 0.0;  // 0 = i.i.d. faults
  double column_boost = 1.0;  // fault-rate multiplier in vulnerable columns
  // Fault type mix among faulty cells.
  double flip_fraction = 1.0;
  double set1_fraction = 0.0;
  double set0_fraction = 0.0;
  SramEnergyModel rate_model;

  // Presets modeled after the paper's chips (Fig. 3/8):
  // chip 1: approximately uniform random faults, balanced flip direction.
  static ProfiledChipConfig chip1(std::uint64_t seed = 101);
  // chip 2: strong column alignment, 0-to-1 dominated.
  static ProfiledChipConfig chip2(std::uint64_t seed = 202);
  // chip 3: mild column alignment, 0-to-1 biased.
  static ProfiledChipConfig chip3(std::uint64_t seed = 303);
};

class ProfiledChip {
 public:
  explicit ProfiledChip(const ProfiledChipConfig& config);

  const ProfiledChipConfig& config() const { return config_; }
  long num_cells() const { return config_.rows * config_.cols; }

  // Measured fault rate of the map at voltage v (fraction of cells).
  double error_rate_at(double v) const;

  // Model rate (the target the map was drawn from).
  double model_rate_at(double v) const {
    return config_.rate_model.bit_error_rate(v);
  }

  // True iff the cell at (row, col) is faulty at voltage v.
  bool is_faulty(long row, long col, double v) const;
  FaultType fault_type(long row, long col) const;
  bool column_vulnerable(long col) const;

  // Fraction of faulty cells at v that are 0-to-1 biased (SET1); Fig. 8
  // style breakdown.
  double set1_share_at(double v) const;

  // The scalar reference: injects this chip's faults into a quantized
  // network snapshot with the given linear mapping offset (in bits), one
  // cell lookup per (weight, bit). Returns changed code count. A test
  // oracle and microbenchmark baseline only — runtime injection applies
  // fault_list() (ProfiledChipModel::apply); records nothing in the
  // forensics ledger.
  std::size_t apply(NetSnapshot& snap, double v, std::uint64_t offset) const;

  // The chip's sparse fault pattern over `layout` under mapping `offset`,
  // covering every rate up to p_max. Each cell the mapping touches with
  // u < p_max is recorded with its effective vulnerability u, so applying
  // the list at rate model_rate_at(v) reproduces apply(snap, v, offset)
  // bit-exactly for any v with model_rate_at(v) <= p_max — the profiled map
  // is persistent in voltage (faulty cells at a higher voltage are a subset
  // of those at a lower one), so ONE cell lookup sweep per mapping, at the
  // rate of the grid's lowest voltage, serves a whole voltage grid
  // (RobustnessEvaluator::run_rate_sweep via ProfiledChipModel), and a
  // list built at model_rate_at(v) is the single-voltage injection.
  ChipFaultList fault_list(const NetSnapshot& layout, double p_max,
                           std::uint64_t offset) const;

 private:
  ProfiledChipConfig config_;
  std::vector<float> vulnerability_;  // per-cell u
  std::vector<std::uint8_t> type_;    // FaultType per cell
};

}  // namespace ber
