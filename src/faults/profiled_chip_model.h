// A profiled SRAM array at a fixed operating voltage as a FaultModel
// (Tab. 5 protocol).
//
// Trial t selects the t-th linear weight-to-memory mapping: offsets are
// spread over the array with a large odd stride so different mappings
// overlap as little as possible. The model is persistent in voltage: its
// rate_at_voltage() is the chip's own model_rate_at() curve, and a mapping's
// fault list built at the rate of the lowest voltage of a grid serves every
// voltage on it (ProfiledChip::fault_list).
#pragma once

#include <memory>

#include "biterror/profiled_chip.h"
#include "faults/fault_model.h"

namespace ber {

class ProfiledChipModel : public FaultModel {
 public:
  // Non-owning: `chip` must outlive the model (profiled maps are large;
  // benches share one across models and voltages). Deleted for rvalues —
  // binding a temporary chip would dangle.
  ProfiledChipModel(const ProfiledChip& chip, double v);
  ProfiledChipModel(ProfiledChip&& chip, double v) = delete;
  // Owning: builds the chip described by `config`.
  ProfiledChipModel(const ProfiledChipConfig& config, double v);

  const ProfiledChip& chip() const { return *chip_; }
  double voltage() const { return v_; }

  // The mapping offset (in bits) used for trial `trial`.
  std::uint64_t offset_for_trial(std::uint64_t trial) const;

  std::string describe() const override;
  std::size_t apply(NetSnapshot& snap, std::uint64_t trial) const override;

  // This model's own voltage() need not be on the swept grid.
  bool persistent() const override { return true; }
  ChipFaultList fault_list(const NetSnapshot& layout, std::uint64_t trial,
                           double p_max) const override;
  double rate_at_voltage(double v) const override {
    return chip_->model_rate_at(v);
  }

 private:
  std::shared_ptr<const ProfiledChip> chip_;
  double v_;
};

}  // namespace ber
