// Process-level repro knobs (artifact cache dir, fast mode). Centralized so
// benches, tests and examples agree on behaviour.
#pragma once

#include <string>

namespace ber {

// Directory for trained-model checkpoints (the zoo's recipe cache, see
// api/zoo.h): BER_ARTIFACTS if set, else "artifacts" relative to the
// current directory.
std::string artifacts_dir();

// True when BER_FAST=1: benches and the zoo shrink epochs / chips / test
// subsets to smoke-test scale.
bool fast_mode();

// Ensures a directory exists (mkdir -p semantics). Throws on failure.
void ensure_dir(const std::string& path);

// True if a regular file exists at `path`.
bool file_exists(const std::string& path);

}  // namespace ber
