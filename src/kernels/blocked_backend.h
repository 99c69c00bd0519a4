// Cache-blocked, packed GEMM with an MR x NR register micro-kernel.
//
// BLIS-style three-level blocking: B panels of [KC x NC] and A panels of
// [MC x KC] are packed into contiguous, tile-ordered scratch (from the
// thread-local arena) so the micro-kernel streams both operands linearly
// and keeps a full MR x NR accumulator block in registers. One packing
// routine parameterized by source strides serves all three variants
// (gemm / gemm_at / gemm_bt) — a transpose is just a different stride pair;
// conv_gemm swaps in a B packer that reads the conv input directly.
//
// Threading: one core/parallel dispatch per call, over intra_op_threads()
// shards (one thread on a pool worker or inside a ParallelWorkerScope, and
// below a FLOP floor, so small GEMMs never pay a pool dispatch). Each task
// owns a band of C — columns or rows, whichever dimension has more register
// tiles, with band edges on tile boundaries — and runs the whole blocked
// nest over it, packing its own B and A panels from its own (warm,
// per-thread) arena.
//
// Determinism: for fixed (m, n, k), every C element is accumulated in the
// same order regardless of the band split — KC blocks in sequence, then
// sequential p within a block — so the threaded result is bit-identical to
// the single-threaded one for ANY thread count. Results differ from the
// reference backend only in summation order (and FMA contraction when the
// translation unit is compiled with -march=native); parity is within ~1e-4
// relative error, tested in tests/test_kernels.cpp.
#pragma once

#include "kernels/backend.h"

namespace ber::kernels {

class BlockedBackend final : public Backend {
 public:
  std::string name() const override { return "blocked"; }
  void gemm(long m, long n, long k, float alpha, const float* a,
            const float* b, float beta, float* c) const override;
  void gemm_at(long m, long n, long k, float alpha, const float* a,
               const float* b, float beta, float* c) const override;
  void gemm_bt(long m, long n, long k, float alpha, const float* a,
               const float* b, float beta, float* c) const override;
  // One GEMM across the whole batch, with B panels packed straight from x
  // (implicit GEMM, Chetlur et al. 2014): the padding ring is packed as
  // zeros exactly as im2col would write it, and pack order and KC blocking
  // are those of gemm() over the explicit column matrix, so the result is
  // bit-identical to it without ever building that matrix.
  bool coalesced_conv() const override { return true; }
  void conv_gemm(const ConvShape& s, const float* x, const float* weight,
                 float* y) const override;

  // int8 compute-on-codes path (kernels/qgemm_blocked.cpp): activations are
  // dynamically quantized to 8-bit symmetric per call, the GEMM accumulates
  // in int32 over the stored levels (AVX512-VNNI micro-kernel when the
  // build machine has it, an identical-integer scalar loop otherwise), and
  // the decode scales + bias + ReLU are folded into the writeback. Falls
  // back to the scalar oracle when the view has no int8 data (bits > 8).
  // Integer accumulation is order-independent, so results are bit-identical
  // across the ISA paths; vs the oracle the error is the activation
  // quantization (~1e-2 relative, exact on integer grids — see tests).
  void qgemm(const QWeightView& w, long n, const float* x, float* y,
             const QEpilogue& ep) const override;
  void qgemm_bt(const QWeightView& w, long m, const float* x, float* y,
                const QEpilogue& ep) const override;
  // Fused quantized conv: activation quantization + packing read straight
  // from x (the im2col column matrix is never materialized in float), with
  // the per-column absmax computed as a channel-max plane + kxk window max.
  // Produces exactly the bits qgemm over the lowered columns would; the
  // point is memory traffic — the float column matrix is k*k times the
  // input and was read twice more on top of being written.
  void qconv(const ConvShape& s, const float* x, const QWeightView& w,
             const QEpilogue& ep, float* y) const override;

  // Micro-kernel tile sizes (compile-time, ISA-dependent); exposed so tests
  // can pick shapes that are deliberately not tile multiples.
  static long mr();
  static long nr();
};

}  // namespace ber::kernels
