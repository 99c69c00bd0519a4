#include "faults/ecc_protected_model.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/hash.h"
#include "core/rng.h"

namespace ber {

EccProtectedModel::EccProtectedModel(double p, std::uint64_t seed_base)
    : p_(p), seed_base_(seed_base) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("EccProtectedModel: p must be in [0,1]");
  }
}

EccProtectedModel::EccProtectedModel(
    std::unique_ptr<RandomBitErrorModel> inner)
    : inner_(std::move(inner)) {
  if (!inner_) {
    throw std::invalid_argument("EccProtectedModel: null inner model");
  }
}

std::string EccProtectedModel::describe() const {
  if (inner_) return "SECDED(72,64) over " + inner_->describe();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "SECDED(72,64) @ p=%.4g%%", 100.0 * p_);
  return buf;
}

void EccProtectedModel::validate_layout(const NetSnapshot& layout) const {
  for (const auto& qt : layout.tensors) {
    if (qt.scheme.bits > 8) {
      throw std::invalid_argument(
          "EccProtectedModel: needs codes of at most 8 bits (8 per 64-bit "
          "data word)");
    }
  }
}

std::size_t EccProtectedModel::apply(NetSnapshot& snap,
                                     std::uint64_t trial) const {
  validate_layout(snap);
  Rng rng(hash_mix(seed_base_, trial, 1));
  std::uint64_t word_index = 0;
  std::size_t changed = 0;
  for (auto& qt : snap.tensors) {
    // Pack 8 consecutive 8-bit codes per 64-bit data word, tensor by tensor.
    for (std::size_t w0 = 0; w0 < qt.codes.size(); w0 += 8, ++word_index) {
      std::uint64_t data = 0;
      const std::size_t count = std::min<std::size_t>(8, qt.codes.size() - w0);
      for (std::size_t j = 0; j < count; ++j) {
        data |= static_cast<std::uint64_t>(qt.codes[w0 + j] & 0xFF) << (8 * j);
      }
      SecdedWord word = secded_encode(data);
      if (inner_) {
        inner_->corrupt_codeword(word, word_index, trial);
      } else {
        for (int bit = 0; bit < 72; ++bit) {
          if (rng.bernoulli(p_)) secded_flip(word, bit);
        }
      }
      const SecdedResult decoded = secded_decode(word);
      // Mask to the live code width: for sub-8-bit codes the byte's high
      // bits are padding cells — their faults can defeat the ECC correction
      // but never reach the stored weight.
      const std::uint16_t mask =
          static_cast<std::uint16_t>((1u << qt.scheme.bits) - 1u);
      for (std::size_t j = 0; j < count; ++j) {
        const std::uint16_t code =
            static_cast<std::uint16_t>((decoded.data >> (8 * j)) & mask);
        if (code != qt.codes[w0 + j]) {
          qt.codes[w0 + j] = code;
          ++changed;
        }
      }
    }
  }
  return changed;
}

}  // namespace ber
