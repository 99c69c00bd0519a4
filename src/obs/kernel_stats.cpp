#include "obs/kernel_stats.h"

#include <map>
#include <memory>
#include <mutex>

namespace ber::obs {

KernelStats& kernel_stats(const std::string& backend) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<KernelStats>>* cache =
      new std::map<std::string, std::unique_ptr<KernelStats>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(backend);
  if (it != cache->end()) return *it->second;
  Registry& reg = registry();
  const Labels labels = {{"backend", backend}};
  auto ks = std::make_unique<KernelStats>();
  ks->gemm_calls = &reg.counter("kernels.gemm_calls", labels);
  ks->gemm_flops = &reg.counter("kernels.gemm_flops", labels);
  ks->conv_calls = &reg.counter("kernels.conv_calls", labels);
  ks->conv_images = &reg.counter("kernels.conv_images", labels);
  ks->im2col_bytes = &reg.counter("kernels.im2col_bytes", labels);
  ks->qgemm_calls = &reg.counter("kernels.qgemm_calls", labels);
  ks->qgemm_flops = &reg.counter("kernels.qgemm_flops", labels);
  ks->qconv_calls = &reg.counter("kernels.qconv_calls", labels);
  ks->qconv_images = &reg.counter("kernels.qconv_images", labels);
  ks->pack_ns = &reg.counter("kernels.pack_ns", labels);
  KernelStats& ref = *ks;
  (*cache)[backend] = std::move(ks);
  return ref;
}

void note_arena_in_use(std::size_t bytes) {
  static Gauge& hwm = registry().gauge("kernels.arena_hwm_bytes");
  hwm.set_max(static_cast<double>(bytes));
}

}  // namespace ber::obs
