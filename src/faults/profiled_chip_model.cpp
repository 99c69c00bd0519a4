#include "faults/profiled_chip_model.h"

#include <cstdio>

namespace ber {

ProfiledChipModel::ProfiledChipModel(const ProfiledChip& chip, double v)
    : chip_(&chip, [](const ProfiledChip*) {}), v_(v) {}

ProfiledChipModel::ProfiledChipModel(const ProfiledChipConfig& config,
                                     double v)
    : chip_(std::make_shared<const ProfiledChip>(config)), v_(v) {}

std::uint64_t ProfiledChipModel::offset_for_trial(std::uint64_t trial) const {
  return (trial * 7919ULL * 64ULL) %
         static_cast<std::uint64_t>(chip_->num_cells());
}

std::string ProfiledChipModel::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "ProfiledChip(v=%.2f, measured p=%.4g%%, %ldx%ld)", v_,
                100.0 * chip_->error_rate_at(v_), chip_->config().rows,
                chip_->config().cols);
  return buf;
}

std::size_t ProfiledChipModel::apply(NetSnapshot& snap,
                                     std::uint64_t trial) const {
  const double p = chip_->model_rate_at(v_);
  return fault_list(snap, trial, p).apply(snap, p);
}

ChipFaultList ProfiledChipModel::fault_list(const NetSnapshot& layout,
                                            std::uint64_t trial,
                                            double p_max) const {
  return chip_->fault_list(layout, p_max, offset_for_trial(trial));
}

}  // namespace ber
