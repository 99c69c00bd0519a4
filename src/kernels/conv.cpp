#include "kernels/conv.h"

#include <algorithm>
#include <cstdint>

#include "core/parallel.h"
#include "kernels/arena.h"
#include "obs/kernel_stats.h"
#include "tensor/ops.h"

namespace ber::kernels {

long ConvShape::oh() const { return conv_out_size(h, kernel, stride, pad); }
long ConvShape::ow() const { return conv_out_size(w, kernel, stride, pad); }

namespace {

// The explicit batch column matrix [C*k*k, N*OH*OW] of x, built in the
// calling thread's arena (the caller's ArenaScope owns it) and tallied in
// kernels.im2col_bytes: the lowering behind the default Backend::conv_gemm
// and the coalesced backward.
float* lower_columns(const Backend& bk, const ConvShape& s, const float* x) {
  const long k = s.cols_k(), ld = s.n * s.spatial();
  bk.kstats().im2col_bytes->add(static_cast<unsigned long long>(k) * ld *
                                sizeof(float));
  float* cols = tls_arena().alloc(static_cast<std::size_t>(k * ld));
  const int col_threads = intra_op_threads(k * ld, kIntraOpMinFloats);
  parallel_for(s.n, col_threads, [&](std::int64_t i) {
    im2col_ld(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel,
              s.kernel, s.stride, s.pad, cols + i * s.spatial(), ld);
  });
  return cols;
}

// The seed Conv2d loop, kept order-identical so the reference backend stays
// bit-exact: per image, im2col then one [out_c, spatial] GEMM then bias.
void forward_per_image(const Backend& bk, const ConvShape& s, const float* x,
                       const float* weight, const float* bias, float* y) {
  const long k = s.cols_k(), spatial = s.spatial();
  bk.kstats().im2col_bytes->add(static_cast<unsigned long long>(s.n) * k *
                                spatial * sizeof(float));
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* col = arena.alloc(static_cast<std::size_t>(k * spatial));
  for (long i = 0; i < s.n; ++i) {
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

// One GEMM across the whole batch (Backend::conv_gemm). The GEMM result
// comes out [out_c, N*spatial] (channel-major); the writeback transposes it
// into the [N, out_c, spatial] output layout and folds the bias in, per
// image on the pool (each image owns disjoint output ranges); the GEMM
// shards itself.
void forward_coalesced(const Backend& bk, const ConvShape& s, const float* x,
                       const float* weight, const float* bias, float* y) {
  const long spatial = s.spatial();
  const long ld = s.n * spatial;
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* tmp = arena.alloc(static_cast<std::size_t>(s.out_c * ld));
  bk.conv_gemm(s, x, weight, tmp);
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

// Per image: re-lower the image's columns from x, then dW += gO x col^T,
// the bias grad, and dcol = W^T x gO scattered back by col2im.
void backward_per_image(const Backend& bk, const ConvShape& s, const float* x,
                        const float* grad_out, const float* weight,
                        float* grad_weight, float* grad_bias, float* grad_in) {
  const long k = s.cols_k(), spatial = s.spatial();
  bk.kstats().im2col_bytes->add(static_cast<unsigned long long>(s.n) * k *
                                spatial * sizeof(float));
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* col = arena.alloc(static_cast<std::size_t>(k * spatial));
  float* grad_col = arena.alloc(static_cast<std::size_t>(k * spatial));
  for (long i = 0; i < s.n; ++i) {
    const float* go = grad_out + i * s.out_c * spatial;
    im2col(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel, s.kernel,
           s.stride, s.pad, col);
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

// Batch-wide backward: two GEMMs over the channel-major gradient. The
// column matrix is re-lowered from x into scoped scratch for the dW GEMM
// and released before the dcol matrix of the same size is allocated.
void backward_coalesced(const Backend& bk, const ConvShape& s, const float* x,
                        const float* grad_out, const float* weight,
                        float* grad_weight, float* grad_bias, float* grad_in) {
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
  const int col_threads = intra_op_threads(k * ld, kIntraOpMinFloats);
  {
    ArenaScope cols_scope(arena);
    float* cols = lower_columns(bk, s, x);
    // dW [out, k] += gO_all [out, N*spatial] x cols^T [N*spatial, k]
    bk.gemm_bt(s.out_c, k, ld, 1.0f, go_all, cols, 1.0f, grad_weight);
  }
  // dcol [k, N*spatial] = W^T [k, out] x gO_all [out, N*spatial]
  float* grad_col = arena.alloc(static_cast<std::size_t>(k * ld));
  bk.gemm_at(k, ld, s.out_c, 1.0f, weight, go_all, 0.0f, grad_col);
  // Image i's columns scatter only into image i's planes of grad_in.
  parallel_for(s.n, col_threads, [&](std::int64_t i) {
    col2im_ld(grad_col + i * spatial, s.in_c, s.h, s.w, s.kernel, s.kernel,
              s.stride, s.pad, grad_in + i * s.in_c * s.h * s.w, ld);
  });
}

}  // namespace

// Default conv GEMM: the explicit column matrix, then one gemm(). The
// oracle for every override (bit-identical when the override packs the same
// panel values in the same order, as the blocked one does).
void Backend::conv_gemm(const ConvShape& s, const float* x,
                        const float* weight, float* y) const {
  ArenaScope scope(tls_arena());
  const float* cols = lower_columns(*this, s, x);
  gemm(s.out_c, s.n * s.spatial(), s.cols_k(), 1.0f, weight, cols, 0.0f, y);
}

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
                    const float* weight, const float* bias, float* y) {
  obs::KernelStats& ks = bk.kstats();
  ks.conv_calls->add(1);
  ks.conv_images->add(static_cast<unsigned long long>(s.n));
  if (bk.coalesced_conv()) {
    forward_coalesced(bk, s, x, weight, bias, y);
  } else {
    forward_per_image(bk, s, x, weight, bias, y);
  }
}

void conv2d_backward(const Backend& bk, const ConvShape& s, const float* x,
                     const float* grad_out, const float* weight,
                     float* grad_weight, float* grad_bias, float* grad_in) {
  if (bk.coalesced_conv()) {
    backward_coalesced(bk, s, x, grad_out, weight, grad_weight, grad_bias,
                       grad_in);
  } else {
    backward_per_image(bk, s, x, grad_out, weight, grad_weight, grad_bias,
                       grad_in);
  }
}

}  // namespace ber::kernels
