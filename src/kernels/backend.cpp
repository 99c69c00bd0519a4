#include "kernels/backend.h"

#include <sstream>
#include <stdexcept>

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

// The built-ins, sorted by name. Nothing registers backends at run time;
// constinit keeps them usable from other translation units' static
// initializers.
constinit const ReferenceBackend kReference;
constinit const BlockedBackend kBlocked;
constinit const Backend* const kBackends[] = {&kBlocked, &kReference};

constinit std::atomic<const Backend*> default_bk{&kReference};

thread_local const Backend* tls_override = nullptr;

}  // namespace

const Backend& backend(const std::string& name) {
  for (const Backend* bk : kBackends) {
    if (bk->name() == name) return *bk;
  }
  std::ostringstream os;
  os << "unknown compute backend \"" << name << "\"; known:";
  for (const Backend* bk : kBackends) os << " " << bk->name();
  throw std::invalid_argument(os.str());
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const Backend* bk : kBackends) names.push_back(bk->name());
  return names;
}

const Backend& default_backend() {
  return *default_bk.load(std::memory_order_acquire);
}

void set_default_backend(const std::string& name) {
  default_bk.store(&backend(name), std::memory_order_release);
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

}  // namespace ber::kernels
