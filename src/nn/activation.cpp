#include "nn/activation.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"

namespace ber {

namespace {

// ReLU runs over fixed element chunks: the chunking, and so every
// per-chunk result, is independent of the thread count.
constexpr long kReluChunk = 16384;

long relu_chunks(long n) { return (n + kReluChunk - 1) / kReluChunk; }

// Clamps x[lo, hi) into out and returns how many outputs are active; kMask
// also writes the training mask in the same pass. A template rather than a
// runtime branch keeps both loops vectorizable.
template <bool kMask>
long relu_chunk(const float* x, float* out, float* mask, long lo, long hi) {
  long active = 0;
  for (long i = lo; i < hi; ++i) {
    const bool on = x[i] > 0.0f;
    active += on;
    out[i] = on ? x[i] : 0.0f;
    if constexpr (kMask) mask[i] = on ? 1.0f : 0.0f;
  }
  return active;
}

}  // namespace

Tensor ReLU::forward(const Tensor& x, bool training) {
  const long n = x.numel();
  Tensor out(x.shape());
  if (training && mask_.shape() != x.shape()) mask_ = Tensor(x.shape());
  const float* xd = x.data();
  float* d = out.data();
  float* md = training ? mask_.data() : nullptr;
  // One pass clamps and, when training, writes the mask; each chunk counts
  // its active outputs and the counts are summed as integers.
  std::vector<long> active(static_cast<std::size_t>(relu_chunks(n)));
  const int threads = intra_op_threads(n, kIntraOpMinFloats);
  parallel_for(relu_chunks(n), threads, [&](std::int64_t ch) {
    const long lo = ch * kReluChunk, hi = std::min(n, lo + kReluChunk);
    active[static_cast<std::size_t>(ch)] =
        md != nullptr ? relu_chunk<true>(xd, d, md, lo, hi)
                      : relu_chunk<false>(xd, d, nullptr, lo, hi);
  });
  const long total = std::accumulate(active.begin(), active.end(), 0L);
  last_active_fraction_ = n > 0 ? static_cast<double>(total) / n : 0.0;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (mask_.dim() == 0) {
    throw std::logic_error("ReLU::backward: no cached forward pass");
  }
  if (grad_out.shape() != mask_.shape()) {
    throw std::invalid_argument("ReLU::backward: bad grad " +
                                grad_out.shape_str());
  }
  const long n = grad_out.numel();
  Tensor grad_in(grad_out.shape());
  const float* go = grad_out.data();
  const float* m = mask_.data();
  float* g = grad_in.data();
  const int threads = intra_op_threads(n, kIntraOpMinFloats);
  parallel_for(relu_chunks(n), threads, [&](std::int64_t ch) {
    const long lo = ch * kReluChunk, hi = std::min(n, lo + kReluChunk);
    for (long i = lo; i < hi; ++i) g[i] = go[i] * m[i];
  });
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool training) {
  if (training) in_shape_ = x.shape();
  return x.reshaped({x.shape(0), -1});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (in_shape_.empty()) {
    throw std::logic_error("Flatten::backward: no cached forward pass");
  }
  return grad_out.reshaped(in_shape_);
}

}  // namespace ber
