#include "biterror/profiled_chip.h"

#include <stdexcept>
#include <vector>

#include "core/hash.h"

namespace ber {

ProfiledChipConfig ProfiledChipConfig::chip1(std::uint64_t seed) {
  ProfiledChipConfig c;
  c.seed = seed;
  c.vulnerable_column_fraction = 0.02;
  c.column_boost = 2.0;
  c.flip_fraction = 0.9;
  c.set1_fraction = 0.05;
  c.set0_fraction = 0.05;
  return c;
}

ProfiledChipConfig ProfiledChipConfig::chip2(std::uint64_t seed) {
  ProfiledChipConfig c;
  c.seed = seed;
  c.rows = 8192;
  c.vulnerable_column_fraction = 0.12;
  c.column_boost = 25.0;
  c.flip_fraction = 0.1;
  c.set1_fraction = 0.75;
  c.set0_fraction = 0.15;
  return c;
}

ProfiledChipConfig ProfiledChipConfig::chip3(std::uint64_t seed) {
  ProfiledChipConfig c;
  c.seed = seed;
  c.rows = 8192;
  c.vulnerable_column_fraction = 0.06;
  c.column_boost = 10.0;
  c.flip_fraction = 0.2;
  c.set1_fraction = 0.65;
  c.set0_fraction = 0.15;
  return c;
}

ProfiledChip::ProfiledChip(const ProfiledChipConfig& config) : config_(config) {
  const long n = num_cells();
  if (n <= 0) throw std::invalid_argument("ProfiledChip: empty array");
  vulnerability_.resize(static_cast<std::size_t>(n));
  type_.resize(static_cast<std::size_t>(n));
  for (long r = 0; r < config_.rows; ++r) {
    for (long c = 0; c < config_.cols; ++c) {
      const std::size_t idx = static_cast<std::size_t>(r * config_.cols + c);
      // Vulnerable columns store u / boost: their cells cross the u < p
      // threshold at column_boost times the base rate, producing the
      // column-aligned stripes of Fig. 3 while keeping persistence exact.
      double u = hash_uniform(config_.seed, static_cast<std::uint64_t>(r),
                              static_cast<std::uint64_t>(c));
      if (column_vulnerable(c)) u /= config_.column_boost;
      vulnerability_[idx] = static_cast<float>(u);
      const double t = hash_uniform2(config_.seed, static_cast<std::uint64_t>(r),
                                     static_cast<std::uint64_t>(c));
      FaultType ft;
      if (t < config_.flip_fraction) {
        ft = FaultType::kFlip;
      } else if (t < config_.flip_fraction + config_.set1_fraction) {
        ft = FaultType::kSet1;
      } else {
        ft = FaultType::kSet0;
      }
      type_[idx] = static_cast<std::uint8_t>(ft);
    }
  }
}

double ProfiledChip::error_rate_at(double v) const {
  const double p = model_rate_at(v);
  long faulty = 0;
  for (float u : vulnerability_) {
    if (u < p) ++faulty;
  }
  return static_cast<double>(faulty) / static_cast<double>(num_cells());
}

bool ProfiledChip::is_faulty(long row, long col, double v) const {
  const double p = model_rate_at(v);
  return vulnerability_[static_cast<std::size_t>(row * config_.cols + col)] < p;
}

FaultType ProfiledChip::fault_type(long row, long col) const {
  return static_cast<FaultType>(
      type_[static_cast<std::size_t>(row * config_.cols + col)]);
}

bool ProfiledChip::column_vulnerable(long col) const {
  return hash_uniform(config_.seed ^ 0x55AA55AA55AA55AAULL, 0xC01ULL,
                      static_cast<std::uint64_t>(col)) <
         config_.vulnerable_column_fraction;
}

double ProfiledChip::set1_share_at(double v) const {
  const double p = model_rate_at(v);
  long faulty = 0, set1 = 0;
  for (std::size_t i = 0; i < vulnerability_.size(); ++i) {
    if (vulnerability_[i] < p) {
      ++faulty;
      if (static_cast<FaultType>(type_[i]) == FaultType::kSet1) ++set1;
    }
  }
  return faulty == 0 ? 0.0 : static_cast<double>(set1) / faulty;
}

std::size_t ProfiledChip::apply(NetSnapshot& snap, double v,
                                std::uint64_t offset) const {
  const double p = model_rate_at(v);
  const std::uint64_t cells = static_cast<std::uint64_t>(num_cells());
  std::size_t changed = 0;
  for (std::size_t t = 0; t < snap.tensors.size(); ++t) {
    QuantizedTensor& qt = snap.tensors[t];
    const int bits = qt.scheme.bits;
    const std::uint64_t base = snap.offsets[t];
    for (std::size_t i = 0; i < qt.codes.size(); ++i) {
      std::uint16_t code = qt.codes[i];
      const std::uint16_t before = code;
      for (int j = 0; j < bits; ++j) {
        const std::uint64_t bit_addr = (base + i) * bits + j;
        const std::uint64_t cell = (offset + bit_addr) % cells;
        if (vulnerability_[static_cast<std::size_t>(cell)] >= p) continue;
        code = apply_fault(code, j, static_cast<FaultType>(type_[cell]));
      }
      if (code != before) {
        qt.codes[i] = code;
        ++changed;
      }
    }
  }
  return changed;
}

ChipFaultList ProfiledChip::fault_list(const NetSnapshot& layout, double p_max,
                                       std::uint64_t offset) const {
  const std::uint64_t cells = static_cast<std::uint64_t>(num_cells());
  std::vector<std::vector<ChipFault>> per_tensor(layout.tensors.size());
  for (std::size_t t = 0; t < layout.tensors.size(); ++t) {
    const QuantizedTensor& qt = layout.tensors[t];
    const int bits = qt.scheme.bits;
    const std::uint64_t base = layout.offsets[t];
    for (std::size_t i = 0; i < qt.codes.size(); ++i) {
      for (int j = 0; j < bits; ++j) {
        const std::uint64_t bit_addr = (base + i) * bits + j;
        const std::uint64_t cell = (offset + bit_addr) % cells;
        const float u = vulnerability_[static_cast<std::size_t>(cell)];
        if (u >= p_max) continue;
        per_tensor[t].push_back({static_cast<std::uint32_t>(i),
                                 static_cast<std::uint8_t>(j), type_[cell],
                                 static_cast<double>(u)});
      }
    }
  }
  return ChipFaultList(layout, std::move(per_tensor), p_max, offset);
}

}  // namespace ber
