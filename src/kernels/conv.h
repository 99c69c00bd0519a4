// Convolution lowering through a compute backend.
//
// Two strategies, chosen by Backend::coalesced_conv():
//
//   per-image  — the seed path: for each image, im2col to [C*k*k, OH*OW]
//                and one GEMM. Bit-exact with the original Conv2d loops
//                under the reference backend.
//   coalesced  — ONE GEMM [out_c, C*k*k] x [C*k*k, N*OH*OW] for the whole
//                batch (image i occupies columns [i*OH*OW, (i+1)*OH*OW)),
//                through Backend::conv_gemm, so dynamic batching pays even
//                on a single core: the GEMM amortizes A-packing of the
//                weights over N images and runs at full tile occupancy
//                instead of N skinny calls. The default conv_gemm builds
//                the column matrix explicitly; the blocked backend packs
//                its GEMM panels straight from x (implicit GEMM), so the
//                forward never materializes it. Backward is coalesced the
//                same way (one gemm_bt for dW, one gemm_at for dcol). The
//                loops around the GEMMs — lowering, the channel-major ->
//                NCHW writeback and col2im (per image), the grad_out gather
//                and bias-grad sums (per channel) — run on the core/parallel
//                pool behind intra_op_threads(); every element is computed
//                as on one thread, so results are bit-identical for any
//                thread count.
//
// No column matrix outlives a call. Backward re-lowers the columns from the
// input the layer caches anyway (per image on the per-image path, the whole
// batch on the coalesced one), in scoped arena scratch, so the choice of
// lowering is made per call and forward and backward may run under
// different backends.
#pragma once

#include "kernels/backend.h"

namespace ber::kernels {

struct ConvShape {
  long n;        // batch
  long in_c, h, w;
  long out_c;
  long kernel;   // square
  long stride;
  long pad;

  long oh() const;
  long ow() const;
  long spatial() const { return oh() * ow(); }        // OH*OW
  long cols_k() const { return in_c * kernel * kernel; }  // GEMM inner dim
};

// Forward: x [N, in_c, H, W], weight [out_c, in_c, k, k], bias [out_c] (may
// be null), y [N, out_c, OH, OW].
void conv2d_forward(const Backend& bk, const ConvShape& s, const float* x,
                    const float* weight, const float* bias, float* y);

// Inference-only compute-on-codes forward: the same lowering strategies
// (per-image / coalesced), but the GEMM consumes the stored weight code
// words through the backend's qgemm and the bias + optional ReLU ride in
// the fused epilogue instead of separate passes.
// w.rows must be out_c and w.cols must be cols_k(). Under the reference
// backend (scalar oracle qgemm) the result is bit-identical to
// conv2d_forward on the dequantized weights followed by ReLU.
void conv2d_forward_quant(const Backend& bk, const ConvShape& s,
                          const float* x, const QWeightView& w,
                          const QEpilogue& ep, float* y);

// Backward: x is the forward's input, grad_out [N, out_c, OH, OW].
// Accumulates into grad_weight / grad_bias (grad_bias may be null); writes
// grad_in [N, in_c, H, W], which must be pre-zeroed by the caller.
void conv2d_backward(const Backend& bk, const ConvShape& s, const float* x,
                     const float* grad_out, const float* weight,
                     float* grad_weight, float* grad_bias, float* grad_in);

}  // namespace ber::kernels
