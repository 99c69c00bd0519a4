#include "faults/fault_model.h"

#include <stdexcept>

namespace ber {

void FaultModel::validate_layout(const NetSnapshot&) const {}

std::size_t FaultModel::apply(NetSnapshot&, std::uint64_t) const {
  throw std::logic_error(describe() +
                         ": code-space injection not supported");
}

void FaultModel::apply_weights(const std::vector<Param*>&,
                               std::uint64_t) const {
  throw std::logic_error(describe() +
                         ": weight-space injection not supported");
}

ChipFaultList FaultModel::fault_list(const NetSnapshot&, std::uint64_t,
                                     double) const {
  throw std::logic_error(describe() + ": not a persistent fault model");
}

double FaultModel::rate_at_voltage(double) const {
  throw std::logic_error(describe() + ": not a persistent fault model");
}

void require_persistent(const FaultModel& fault, const char* caller) {
  if (!fault.persistent()) {
    throw std::invalid_argument(std::string(caller) + ": " +
                                fault.describe() +
                                " is not a persistent fault model");
  }
}

}  // namespace ber
