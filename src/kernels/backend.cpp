#include "kernels/backend.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <memory>

#include "kernels/blocked_backend.h"
#include "kernels/reference_backend.h"
#include "obs/kernel_stats.h"

namespace ber::kernels {

obs::KernelStats& Backend::kstats() const {
  obs::KernelStats* s = kstats_.load(std::memory_order_acquire);
  if (s == nullptr) {
    s = &obs::kernel_stats(name());
    kstats_.store(s, std::memory_order_release);
  }
  return *s;
}

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Backend>> backends;
  const Backend* default_bk = nullptr;
  bool env_latched = false;

  Registry() {
    backends.emplace("reference", std::make_unique<ReferenceBackend>());
    backends.emplace("blocked", std::make_unique<BlockedBackend>());
  }

  // Call with mu held.
  const Backend* find(const std::string& name) {
    auto it = backends.find(name);
    return it == backends.end() ? nullptr : it->second.get();
  }

  const Backend* lookup_or_throw(const std::string& name) {
    if (const Backend* bk = find(name)) return bk;
    std::ostringstream os;
    os << "unknown compute backend \"" << name << "\"; known:";
    for (const auto& [n, bk] : backends) os << " " << n;
    throw std::invalid_argument(os.str());
  }

  const Backend* resolve_default() {
    if (!env_latched) {
      env_latched = true;
      if (const char* env = std::getenv("BER_BACKEND")) {
        default_bk = lookup_or_throw(env);
      }
    }
    if (!default_bk) default_bk = find("reference");
    return default_bk;
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local const Backend* tls_override = nullptr;

}  // namespace

const Backend& backend(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return *r.lookup_or_throw(name);
}

std::vector<std::string> backend_names() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.backends.size());
  for (const auto& [name, bk] : r.backends) names.push_back(name);
  return names;
}

const Backend& default_backend() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return *r.resolve_default();
}

void set_default_backend(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.default_bk = r.lookup_or_throw(name);
  r.env_latched = true;  // an explicit choice beats a later env latch
}

const Backend& current_backend() {
  if (tls_override) return *tls_override;
  return default_backend();
}

ScopedBackend::ScopedBackend(const Backend& bk) : prev_(tls_override) {
  tls_override = &bk;
}

ScopedBackend::ScopedBackend(const std::string& name)
    : ScopedBackend(backend(name)) {}

ScopedBackend::~ScopedBackend() { tls_override = prev_; }

namespace detail {
void refresh_default_from_env() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.default_bk = nullptr;
  r.env_latched = false;
  r.resolve_default();
}
}  // namespace detail

}  // namespace ber::kernels
