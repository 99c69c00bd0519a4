// Checkpoints: trained weights + the quantization scheme they were trained
// for, in one artifact — the only on-disk model format (the zoo's recipe
// cache, api/zoo.h, stores every trained model this way).
//
// A served model is only meaningful together with its QuantScheme — the
// fault models perturb quantized codes, so deploying under a different
// scheme silently changes the robustness story. save_checkpoint bundles
// both ("BERD" magic + version header on top of core/serialize.h);
// load_checkpoint restores the weights into an identically-built
// architecture and returns the stored scheme. Truncated or corrupt files
// throw (BinaryReader is defensive about short reads and absurd length
// prefixes — regression-tested in tests/test_serve.cpp).
#pragma once

#include <string>

#include "nn/sequential.h"
#include "quant/quantizer.h"

namespace ber {

void save_checkpoint(const std::string& path, Sequential& model,
                     const QuantScheme& scheme);

// Loads into `model` (must match the saved architecture) and returns the
// scheme the weights were trained for.
QuantScheme load_checkpoint(const std::string& path, Sequential& model);

}  // namespace ber
