#include "core/env.h"

#include <cstdlib>
#include <filesystem>

namespace ber {

namespace fs = std::filesystem;

std::string artifacts_dir() {
  const char* env = std::getenv("BER_ARTIFACTS");
  return env != nullptr ? env : "artifacts";
}

bool fast_mode() {
  const char* env = std::getenv("BER_FAST");
  return env != nullptr && env[0] == '1';
}

void ensure_dir(const std::string& path) { fs::create_directories(path); }

bool file_exists(const std::string& path) {
  return fs::is_regular_file(path);
}

}  // namespace ber
