// Pluggable compute backends: the GEMM (and conv-lowering policy) behind
// every forward/backward pass in the library.
//
// Two built-ins:
//   reference — the original tensor/ops.h loops, kept bit-exact with the
//               seed implementation. Paper benches and fixed-seed artifacts
//               pin this backend so published numbers never shift.
//   blocked   — cache-blocked, A/B-packed GEMM with an MR x NR register
//               micro-kernel and batch-coalesced conv lowering; same math,
//               different floating-point summation order (documented
//               tolerance: ~1e-4 relative vs reference).
//
// The caller names the backend; no environment variable picks it.
// Selection, from lowest to highest precedence:
//   1. process-wide default: "reference", replaceable with
//      set_default_backend();
//   2. per-call/thread override: ScopedBackend (RAII, nestable) — this is
//      how a spec's backend scopes a run, and how the evaluator / serving
//      workers propagate their caller's choice onto pool threads.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "kernels/qweight.h"

namespace ber::obs {
struct KernelStats;
}

namespace ber::kernels {

struct ConvShape;

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  // This backend's profiling counters (obs/kernel_stats.h), labeled
  // {backend=name()}. Resolved lazily on first use and cached, so the GEMM
  // hot paths pay relaxed fetch_adds only — no lookup, no lock.
  obs::KernelStats& kstats() const;

  // C[m,n] = alpha * A[m,k] x B[k,n] + beta * C. Row-major, like
  // ber::gemm in tensor/ops.h.
  virtual void gemm(long m, long n, long k, float alpha, const float* a,
                    const float* b, float beta, float* c) const = 0;

  // C[m,n] = alpha * A^T x B + beta * C with A stored [k,m].
  virtual void gemm_at(long m, long n, long k, float alpha, const float* a,
                       const float* b, float beta, float* c) const = 0;

  // C[m,n] = alpha * A x B^T + beta * C with B stored [n,k].
  virtual void gemm_bt(long m, long n, long k, float alpha, const float* a,
                       const float* b, float beta, float* c) const = 0;

  // Whether convolution should run the whole batch as one GEMM against the
  // batch column matrix ([in*k*k, N*OH*OW], conv_gemm below) instead of
  // per-image lowering.
  virtual bool coalesced_conv() const { return false; }

  // The coalesced conv GEMM: y[out_c, N*OH*OW] = W[out_c, in*k*k] x the
  // batch column matrix of x [N, in_c, H, W] (kernels/conv.h). The default
  // (kernels/conv.cpp) materializes the column matrix in arena scratch and
  // calls gemm() — the explicit-column oracle. Backends override it to pack
  // GEMM operands straight from x; the blocked one packs exactly the panel
  // values the explicit matrix would give, so its bits are identical.
  virtual void conv_gemm(const ConvShape& s, const float* x,
                         const float* weight, float* y) const;

  // ------------------------------------------ compute-on-codes surface ---
  //
  // Quantized-weight GEMM: the weight operand arrives as stored code words
  // (kernels/qweight.h) and the bias/ReLU epilogue is fused into the
  // writeback. The default implementations are the pinned scalar oracle:
  // decode every code with quant/quantizer.h's exact arithmetic into arena
  // scratch, then run the reference float loops — bit-exact with
  // dequantizing the weights and calling gemm()/gemm_bt() + bias + ReLU as
  // separate passes, for every scheme. Backends override these to compute
  // on the int8 levels directly (documented tolerance vs the oracle).

  // y[rows, n] = decode(W)[rows, cols] x X[cols, n] (+ epilogue) — the conv
  // lowering layout (X is a column matrix, y channel-major).
  virtual void qgemm(const QWeightView& w, long n, const float* x, float* y,
                     const QEpilogue& ep) const;

  // y[m, rows] = X[m, cols] x decode(W)^T (+ epilogue) — the Linear layout
  // (W stored [out, in] like nn/linear.h).
  virtual void qgemm_bt(const QWeightView& w, long m, const float* x,
                        float* y, const QEpilogue& ep) const;

  // Quantized-weight convolution forward: x [N, in_c, H, W] against the
  // weight code words, y [N, out_c, OH, OW], epilogue fused. The default
  // (kernels/conv.cpp) lowers per image and calls qgemm — the oracle for
  // every backend. Backends that quantize activations may override to fuse
  // lowering with activation quantization so the float column matrix is
  // never materialized; the override must produce exactly the bits qgemm on
  // the lowered columns would (the blocked one does — same per-column
  // scales, same integers).
  virtual void qconv(const ConvShape& s, const float* x, const QWeightView& w,
                     const QEpilogue& ep, float* y) const;

 private:
  // Cached kstats() resolution; the store is idempotent (kernel_stats
  // returns a process-stable reference), so a benign race just looks it up
  // twice.
  mutable std::atomic<obs::KernelStats*> kstats_{nullptr};
};

// ------------------------------------------------------------- registry ---

// Looks up a built-in backend by name; throws std::invalid_argument with
// the known names on a miss. Returned reference lives for the process.
const Backend& backend(const std::string& name);

// Built-in names, sorted.
std::vector<std::string> backend_names();

// ------------------------------------------- default + per-call override ---

// The process-wide default: "reference" unless set_default_backend() named
// another.
const Backend& default_backend();

// Replaces the process-wide default (e.g. paper benches pinning
// "reference"). Throws on unknown names.
void set_default_backend(const std::string& name);

// The backend in effect on this thread: innermost ScopedBackend if any,
// else the process default. All layers route their GEMMs through this.
const Backend& current_backend();

// RAII thread-local override; nests and restores the previous override.
class ScopedBackend {
 public:
  explicit ScopedBackend(const Backend& bk);
  explicit ScopedBackend(const std::string& name);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const Backend* prev_;
};

}  // namespace ber::kernels
