#include "kernels/conv.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/parallel.h"
#include "kernels/arena.h"
#include "obs/kernel_stats.h"
#include "tensor/ops.h"

namespace ber::kernels {

long ConvShape::oh() const { return conv_out_size(h, kernel, stride, pad); }
long ConvShape::ow() const { return conv_out_size(w, kernel, stride, pad); }

namespace {

// The seed Conv2d loop, kept order-identical so the reference backend stays
// bit-exact: per image, im2col then one [out_c, spatial] GEMM then bias.
void forward_per_image(const Backend& bk, const ConvShape& s, const float* x,
                       const float* weight, const float* bias, float* y,
                       Tensor* cache) {
  const long k = s.cols_k(), spatial = s.spatial();
  bk.kstats().im2col_bytes->add(static_cast<unsigned long long>(s.n) * k *
                                spatial * sizeof(float));
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* scratch = cache ? nullptr
                         : arena.alloc(static_cast<std::size_t>(k * spatial));
  for (long i = 0; i < s.n; ++i) {
    float* col = cache ? cache->data() + i * k * spatial : scratch;
    im2col(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel, s.kernel,
           s.stride, s.pad, col);
    bk.gemm(s.out_c, spatial, k, 1.0f, weight, col, 0.0f,
            y + i * s.out_c * spatial);
    if (bias) {
      for (long c = 0; c < s.out_c; ++c) {
        float* plane = y + (i * s.out_c + c) * spatial;
        const float b = bias[c];
        for (long p = 0; p < spatial; ++p) plane[p] += b;
      }
    }
  }
}

// One im2col + one GEMM across the whole batch. The GEMM result comes out
// [out_c, N*spatial] (channel-major); the writeback transposes it into the
// [N, out_c, spatial] output layout and folds the bias in. The lowering and
// the writeback run per image on the pool (each image owns disjoint column
// and output ranges); the GEMM shards itself.
void forward_coalesced(const Backend& bk, const ConvShape& s, const float* x,
                       const float* weight, const float* bias, float* y,
                       Tensor* cache) {
  const long k = s.cols_k(), spatial = s.spatial();
  const long ld = s.n * spatial;
  bk.kstats().im2col_bytes->add(static_cast<unsigned long long>(k) * ld *
                                sizeof(float));
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* cols =
      cache ? cache->data() : arena.alloc(static_cast<std::size_t>(k * ld));
  const int col_threads = intra_op_threads(k * ld, kIntraOpMinFloats);
  parallel_for(s.n, col_threads, [&](std::int64_t i) {
    im2col_ld(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel,
              s.kernel, s.stride, s.pad, cols + i * spatial, ld);
  });
  float* tmp = arena.alloc(static_cast<std::size_t>(s.out_c * ld));
  bk.gemm(s.out_c, ld, k, 1.0f, weight, cols, 0.0f, tmp);
  const int out_threads = intra_op_threads(s.out_c * ld, kIntraOpMinFloats);
  parallel_for(s.n, out_threads, [&](std::int64_t i) {
    for (long c = 0; c < s.out_c; ++c) {
      const float* src = tmp + c * ld + i * spatial;
      float* dst = y + (i * s.out_c + c) * spatial;
      const float b = bias ? bias[c] : 0.0f;
      for (long p = 0; p < spatial; ++p) dst[p] = src[p] + b;
    }
  });
}

void backward_per_image(const Backend& bk, const ConvShape& s,
                        const Tensor& cols, const float* grad_out,
                        const float* weight, float* grad_weight,
                        float* grad_bias, float* grad_in) {
  const long k = s.cols_k(), spatial = s.spatial();
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* grad_col = arena.alloc(static_cast<std::size_t>(k * spatial));
  for (long i = 0; i < s.n; ++i) {
    const float* go = grad_out + i * s.out_c * spatial;
    const float* col = cols.data() + i * k * spatial;
    // dW [out, k] += gO [out, spatial] x col^T [spatial, k]
    bk.gemm_bt(s.out_c, k, spatial, 1.0f, go, col, 1.0f, grad_weight);
    if (grad_bias) {
      for (long c = 0; c < s.out_c; ++c) {
        const float* plane = go + c * spatial;
        float acc = 0.0f;
        for (long p = 0; p < spatial; ++p) acc += plane[p];
        grad_bias[c] += acc;
      }
    }
    // dcol [k, spatial] = W^T [k, out] x gO [out, spatial]
    bk.gemm_at(k, spatial, s.out_c, 1.0f, weight, go, 0.0f, grad_col);
    col2im(grad_col, s.in_c, s.h, s.w, s.kernel, s.kernel, s.stride, s.pad,
           grad_in + i * s.in_c * s.h * s.w);
  }
}

void backward_coalesced(const Backend& bk, const ConvShape& s,
                        const Tensor& cols, const float* grad_out,
                        const float* weight, float* grad_weight,
                        float* grad_bias, float* grad_in) {
  const long k = s.cols_k(), spatial = s.spatial();
  const long ld = s.n * spatial;
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  // Gather grad_out [N, out_c, spatial] into channel-major [out_c, N*spatial]
  // so the whole batch is two GEMMs. One task per channel row, which then
  // sums the row, in order, into the bias grad.
  float* go_all = arena.alloc(static_cast<std::size_t>(s.out_c * ld));
  const int go_threads = intra_op_threads(s.out_c * ld, kIntraOpMinFloats);
  parallel_for(s.out_c, go_threads, [&](std::int64_t c) {
    float* row = go_all + c * ld;
    for (long i = 0; i < s.n; ++i) {
      const float* src = grad_out + (i * s.out_c + c) * spatial;
      std::copy(src, src + spatial, row + i * spatial);
    }
    if (grad_bias) {
      float acc = 0.0f;
      for (long p = 0; p < ld; ++p) acc += row[p];
      grad_bias[c] += acc;
    }
  });
  // dW [out, k] += gO_all [out, N*spatial] x cols^T [N*spatial, k]
  bk.gemm_bt(s.out_c, k, ld, 1.0f, go_all, cols.data(), 1.0f, grad_weight);
  // dcol [k, N*spatial] = W^T [k, out] x gO_all [out, N*spatial]
  float* grad_col = arena.alloc(static_cast<std::size_t>(k * ld));
  bk.gemm_at(k, ld, s.out_c, 1.0f, weight, go_all, 0.0f, grad_col);
  // Image i's columns scatter only into image i's planes of grad_in.
  const int col_threads = intra_op_threads(k * ld, kIntraOpMinFloats);
  parallel_for(s.n, col_threads, [&](std::int64_t i) {
    col2im_ld(grad_col + i * spatial, s.in_c, s.h, s.w, s.kernel, s.kernel,
              s.stride, s.pad, grad_in + i * s.in_c * s.h * s.w, ld);
  });
}

}  // namespace

// Default quantized conv: per-image lowering + qgemm, the oracle every
// backend's override must match (bit-exactly under the scalar-oracle qgemm,
// up to activation quantization otherwise).
void Backend::qconv(const ConvShape& s, const float* x, const QWeightView& w,
                    const QEpilogue& ep, float* y) const {
  const long k = s.cols_k(), spatial = s.spatial();
  kstats().im2col_bytes->add(static_cast<unsigned long long>(s.n) * k *
                             spatial * sizeof(float));
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* col = arena.alloc(static_cast<std::size_t>(k * spatial));
  for (long i = 0; i < s.n; ++i) {
    im2col(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel, s.kernel,
           s.stride, s.pad, col);
    qgemm(w, spatial, col, y + i * s.out_c * spatial, ep);
  }
}

void conv2d_forward_quant(const Backend& bk, const ConvShape& s,
                          const float* x, const QWeightView& w,
                          const QEpilogue& ep, float* y) {
  obs::KernelStats& ks = bk.kstats();
  ks.qconv_calls->add(1);
  ks.qconv_images->add(static_cast<unsigned long long>(s.n));
  bk.qconv(s, x, w, ep, y);
}

void conv2d_forward(const Backend& bk, const ConvShape& s, const float* x,
                    const float* weight, const float* bias, float* y,
                    Tensor* cols_cache) {
  obs::KernelStats& ks = bk.kstats();
  ks.conv_calls->add(1);
  ks.conv_images->add(static_cast<unsigned long long>(s.n));
  if (bk.coalesced_conv()) {
    forward_coalesced(bk, s, x, weight, bias, y, cols_cache);
  } else {
    forward_per_image(bk, s, x, weight, bias, y, cols_cache);
  }
}

void conv2d_backward(const Backend& bk, const ConvShape& s, const Tensor& cols,
                     const float* grad_out, const float* weight,
                     float* grad_weight, float* grad_bias, float* grad_in) {
  // The cache layout tells us which lowering produced it: [N, k, spatial]
  // from the per-image path, [k, N*spatial] from the coalesced one.
  if (cols.dim() == 3) {
    backward_per_image(bk, s, cols, grad_out, weight, grad_weight, grad_bias,
                       grad_in);
  } else if (cols.dim() == 2) {
    backward_coalesced(bk, s, cols, grad_out, weight, grad_weight, grad_bias,
                       grad_in);
  } else {
    throw std::invalid_argument(
        "conv2d_backward: column cache has unexpected rank (was forward run "
        "in training mode?)");
  }
}

}  // namespace ber::kernels
