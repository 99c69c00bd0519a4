// Kernel profiling hooks: per-backend invocation counters, FLOP and byte
// tallies, pack-time attribution and arena high-water marks, surfaced
// through the metrics registry so bench_kernels-style GFLOP/s numbers are
// observable in ANY run (serve traffic, sweeps, training), not only in the
// microbench.
//
// One KernelStats bundle per backend name, resolved once and cached on the
// Backend instance (kernels/backend.h): the per-call cost in the GEMM hot
// path is a couple of relaxed fetch_adds — never a registry lookup, never a
// lock. Counters (registry keys, all labeled {backend="<name>"}):
//   kernels.gemm_calls / kernels.gemm_flops      float GEMM (2*m*n*k)
//   kernels.conv_calls / kernels.conv_images     conv forward lowerings
//   kernels.im2col_bytes                         column-matrix bytes built
//                                                (explicit lowerings only:
//                                                the blocked forward packs
//                                                from x and builds none)
//   kernels.qgemm_calls / kernels.qgemm_flops    quantized GEMM on codes
//                                                (a qconv adds its FLOPs,
//                                                2*OC*IC*k^2*N*OH*OW)
//   kernels.qconv_calls / kernels.qconv_images   quantized conv forward
//   kernels.pack_ns                              A/B panel packing time
// plus the unlabeled gauge kernels.arena_hwm_bytes — the largest peak of
// scratch arena bytes in use (both regions of one thread's arena, see
// kernels/arena.h) seen anywhere in the process. In-use bytes, not reserved
// capacity: arena chunks are uncommitted until written, so capacity no
// longer tracks resident memory.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.h"

namespace ber::obs {

struct KernelStats {
  Counter* gemm_calls;
  Counter* gemm_flops;
  Counter* conv_calls;
  Counter* conv_images;
  Counter* im2col_bytes;
  Counter* qgemm_calls;
  Counter* qgemm_flops;
  Counter* qconv_calls;
  Counter* qconv_images;
  Counter* pack_ns;
};

// The stats bundle for `backend` (creating its instruments on first use).
// The returned reference lives for the process.
KernelStats& kernel_stats(const std::string& backend);

// Reports a new peak of a thread arena's bytes in use; keeps the global
// kernels.arena_hwm_bytes gauge at the max seen.
void note_arena_in_use(std::size_t bytes);

}  // namespace ber::obs
