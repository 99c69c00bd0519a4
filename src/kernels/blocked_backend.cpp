// NOTE: this translation unit is compiled with -march=native when the
// compiler supports it (see CMakeLists.txt) so the micro-kernel can use the
// widest vectors the build machine has. Nothing else in the library gets
// that flag: the reference kernels must keep the exact seed codegen.
#include "kernels/blocked_backend.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "core/parallel.h"
#include "kernels/arena.h"
#include "kernels/conv.h"
#include "obs/kernel_stats.h"
#include "obs/metrics.h"

namespace ber::kernels {

namespace {

// Register tile: MR x NR accumulators must fit the register file together
// with one A broadcast and NR/vector-width B loads.
#if defined(__AVX512F__)
constexpr long kMR = 8, kNR = 32;  // 16 zmm accumulators
#elif defined(__AVX__)
constexpr long kMR = 6, kNR = 16;  // 12 ymm accumulators
#else
constexpr long kMR = 4, kNR = 8;  // 8 xmm accumulators (baseline SSE2)
#endif

// Cache blocking: A block [MC x KC] targets L2, B panel [KC x NC] L3.
constexpr long kMC = 120;   // multiple of every kMR above
constexpr long kKC = 256;
constexpr long kNC = 2048;  // multiple of every kNR above

// Below this many FLOPs (2mnk) sharding costs more than it saves: the
// core/parallel pool's sleeping workers take ~30-50us to wake and finish
// (measured on a 4-vCPU VM), against ~150us of serial work at 8e6 FLOPs.
constexpr double kShardMinFlops = 8e6;

// Packs an [mc x kc] block of A into kMR-row panels, zero-padded to kMR:
// panel i0 stores, for each p, the kMR values A(i0..i0+MR, p) contiguously.
// A(i, p) of the block is src[i*i_stride + p*p_stride].
void pack_a(const float* src, long i_stride, long p_stride, long mc, long kc,
            float* __restrict dst) {
  for (long i0 = 0; i0 < mc; i0 += kMR) {
    const long ib = std::min(kMR, mc - i0);
    const float* s = src + i0 * i_stride;
    for (long p = 0; p < kc; ++p) {
      for (long i = 0; i < ib; ++i) dst[i] = s[i * i_stride + p * p_stride];
      for (long i = ib; i < kMR; ++i) dst[i] = 0.0f;
      dst += kMR;
    }
  }
}

// Packs a [kc x nc] block of B into kNR-column panels, zero-padded to kNR:
// panel j0 stores, for each p, the kNR values B(p, j0..j0+NR) contiguously.
// B(p, j) of the block is src[p*p_stride + j*j_stride].
void pack_b(const float* src, long p_stride, long j_stride, long kc, long nc,
            float* __restrict dst) {
  for (long j0 = 0; j0 < nc; j0 += kNR) {
    const long jb = std::min(kNR, nc - j0);
    const float* s = src + j0 * j_stride;
    for (long p = 0; p < kc; ++p) {
      const float* sp = s + p * p_stride;
      if (j_stride == 1) {
        std::memcpy(dst, sp, sizeof(float) * static_cast<std::size_t>(jb));
      } else {
        for (long j = 0; j < jb; ++j) dst[j] = sp[j * j_stride];
      }
      for (long j = jb; j < kNR; ++j) dst[j] = 0.0f;
      dst += kNR;
    }
  }
}

// Packs the [kc x nc] block at rows [pc, pc+kc), columns [jc, jc+nc) of
// the batch column matrix of x (kernels/conv.h) straight from x, in
// pack_b's panel layout. Row p = (c, kh, kw), column j = (image, oy, ox);
// each value is the one im2col_ld would have written (0 in the padding
// ring), so the GEMM sees exactly the panels of the explicit lowering. A
// panel's columns run along output rows: each row segment is a (clipped)
// slice of one input row, copied whole at stride 1.
void pack_b_conv(const ConvShape& s, const float* x, long pc, long kc,
                 long jc, long nc, float* __restrict dst) {
  const long K = s.kernel, oh = s.oh(), ow = s.ow(), sp = oh * ow;
  const long plane = s.h * s.w, image = s.in_c * plane;
  for (long j0 = 0; j0 < nc; j0 += kNR) {
    const long jb = std::min(kNR, nc - j0);
    const long jstart = jc + j0;
    const long i0 = jstart / sp, oy0 = (jstart % sp) / ow, ox0 = jstart % ow;
    long c = pc / (K * K), kh = (pc / K) % K, kw = pc % K;
    for (long p = 0; p < kc; ++p) {
      long i = i0, oy = oy0, ox = ox0;
      for (long j = 0; j < jb;) {
        const long run = std::min(jb - j, ow - ox);
        const long iy = oy * s.stride + kh - s.pad;
        float* d = dst + j;
        if (iy < 0 || iy >= s.h) {
          std::fill(d, d + run, 0.0f);
        } else {
          const float* row = x + i * image + c * plane + iy * s.w;
          if (s.stride == 1) {
            const long x0 = ox + kw - s.pad;  // input column of d[0]
            const long lo = std::clamp(-x0, 0L, run);
            const long hi = std::clamp(s.w - x0, lo, run);
            std::fill(d, d + lo, 0.0f);
            std::copy(row + x0 + lo, row + x0 + hi, d + lo);
            std::fill(d + hi, d + run, 0.0f);
          } else {
            for (long t = 0; t < run; ++t) {
              const long ix = (ox + t) * s.stride + kw - s.pad;
              d[t] = (ix >= 0 && ix < s.w) ? row[ix] : 0.0f;
            }
          }
        }
        j += run;
        ox += run;
        if (ox == ow) {
          ox = 0;
          if (++oy == oh) {
            oy = 0;
            ++i;
          }
        }
      }
      std::fill(dst + jb, dst + kNR, 0.0f);
      dst += kNR;
      if (++kw == K) {
        kw = 0;
        if (++kh == K) {
          kh = 0;
          ++c;
        }
      }
    }
  }
}

// C[0..mr, 0..nr] += alpha * sum_p ap[p][:] (x) bp[p][:]. The packed panels
// are zero-padded, so the hot loop always runs the full kMR x kNR tile with
// compile-time trip counts; only the writeback respects the edges.
void micro_kernel(long kc, const float* __restrict ap,
                  const float* __restrict bp, float* c, long ldc, long mr,
                  long nr, float alpha) {
  float acc[kMR][kNR];
  for (long i = 0; i < kMR; ++i) {
    for (long j = 0; j < kNR; ++j) acc[i][j] = 0.0f;
  }
  for (long p = 0; p < kc; ++p) {
    const float* __restrict a = ap + p * kMR;
    const float* __restrict b = bp + p * kNR;
    for (long i = 0; i < kMR; ++i) {
      const float av = a[i];
      for (long j = 0; j < kNR; ++j) acc[i][j] += av * b[j];
    }
  }
  for (long i = 0; i < mr; ++i) {
    float* __restrict ci = c + i * ldc;
    for (long j = 0; j < nr; ++j) ci[j] += alpha * acc[i][j];
  }
}

// The whole blocked nest over one C tile, rows [m0, m1) x columns [n0, n1).
// B and A panels are packed into this thread's arena; tiles are disjoint,
// so no synchronization. Each C element sums its KC blocks in order, and p
// in order within a block, whatever the tile bounds (they are multiples of
// kMR / kNR, so an element also keeps its lane in the register tile).
// pack_b_blk(pc, kc, jc, nc, dst) packs B rows [pc, pc+kc), columns
// [jc, jc+nc) in pack_b's layout. Returns the nanoseconds spent packing.
template <typename PackB>
std::uint64_t gemm_tile(long m0, long m1, long n0, long n1, long k,
                        float alpha, const float* a, long a_is, long a_ps,
                        const PackB& pack_b_blk, float* c, long ldc) {
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  const long nc_cap = std::min(kNC, ((n1 - n0 + kNR - 1) / kNR) * kNR);
  float* bpack = arena.alloc(static_cast<std::size_t>(kKC * nc_cap));
  float* apack = arena.alloc(static_cast<std::size_t>(kMC * kKC));
  std::uint64_t pack_ns = 0;
  for (long jc = n0; jc < n1; jc += kNC) {
    const long nc = std::min(kNC, n1 - jc);
    for (long pc = 0; pc < k; pc += kKC) {
      const long kc = std::min(kKC, k - pc);
      // Pack-time attribution: two clock reads per packed panel, far off
      // the micro-kernel's inner loops.
      std::uint64_t t0 = obs::monotonic_ns();
      pack_b_blk(pc, kc, jc, nc, bpack);
      pack_ns += obs::monotonic_ns() - t0;
      for (long ic = m0; ic < m1; ic += kMC) {
        const long mc = std::min(kMC, m1 - ic);
        t0 = obs::monotonic_ns();
        pack_a(a + ic * a_is + pc * a_ps, a_is, a_ps, mc, kc, apack);
        pack_ns += obs::monotonic_ns() - t0;
        for (long jr = 0; jr < nc; jr += kNR) {
          const long nr = std::min(kNR, nc - jr);
          const float* bp = bpack + (jr / kNR) * (kc * kNR);
          for (long ir = 0; ir < mc; ir += kMR) {
            micro_kernel(kc, apack + (ir / kMR) * (kc * kMR), bp,
                         c + (ic + ir) * ldc + jc + jr, ldc,
                         std::min(kMR, mc - ir), nr, alpha);
          }
        }
      }
    }
  }
  return pack_ns;
}

// C[m,n] = alpha * A x B + beta * C over the blocked nest, A(i, p) =
// a[i*a_is + p*a_ps] and B packed by pack_b_blk (see gemm_tile).
template <typename PackB>
void run(obs::KernelStats& kstats, long m, long n, long k, float alpha,
         const float* a, long a_is, long a_ps, const PackB& pack_b_blk,
         float beta, float* c) {
  // Same beta semantics as the reference kernels.
  if (beta == 0.0f) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  } else if (beta != 1.0f) {
    for (long i = 0; i < m * n; ++i) c[i] *= beta;
  }
  if (m <= 0 || n <= 0 || k <= 0 || alpha == 0.0f) return;

  kstats.gemm_calls->add(1);
  kstats.gemm_flops->add(2ull * static_cast<unsigned long long>(m) *
                         static_cast<unsigned long long>(n) *
                         static_cast<unsigned long long>(k));

  // Sharding geometry. The intra-op gate keeps it serial inside an
  // evaluator/serving worker (coarse-grained parallelism already saturates
  // the cores) instead of oversubscribing T^2. One task per
  // shard owns a band of C along the dimension with more register tiles —
  // columns for the training shapes (m = 16..64 channels, n = batch *
  // pixels) — rounded to the tile, and runs the whole nest over it: one
  // dispatch per call. Results are bit-identical for any shard count (see
  // gemm_tile).
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const int threads = intra_op_threads(flops, kShardMinFlops);
  const long m_tiles = (m + kMR - 1) / kMR;
  const long n_tiles = (n + kNR - 1) / kNR;
  const bool split_n = n_tiles >= m_tiles;
  const long tiles = split_n ? n_tiles : m_tiles;
  const long want = std::min<long>(threads, tiles);
  const long step = ((tiles + want - 1) / want) * (split_n ? kNR : kMR);
  const long extent = split_n ? n : m;
  const long shards = (extent + step - 1) / step;

  std::atomic<std::uint64_t> pack_ns{0};
  const auto task = [&](std::int64_t s) {
    const long lo = s * step;
    const long hi = std::min(extent, lo + step);
    pack_ns.fetch_add(
        gemm_tile(split_n ? 0 : lo, split_n ? m : hi, split_n ? lo : 0,
                  split_n ? hi : n, k, alpha, a, a_is, a_ps, pack_b_blk, c,
                  n),
        std::memory_order_relaxed);
  };
  if (shards > 1) {
    parallel_for(shards, static_cast<int>(shards), task);
  } else {
    task(0);
  }
  kstats.pack_ns->add(pack_ns.load(std::memory_order_relaxed));
}

// pack_b_blk over a strided B: B(p, j) = b[p*b_ps + j*b_js].
auto strided_b(const float* b, long b_ps, long b_js) {
  return [=](long pc, long kc, long jc, long nc, float* dst) {
    pack_b(b + pc * b_ps + jc * b_js, b_ps, b_js, kc, nc, dst);
  };
}

}  // namespace

long BlockedBackend::mr() { return kMR; }
long BlockedBackend::nr() { return kNR; }

void BlockedBackend::gemm(long m, long n, long k, float alpha, const float* a,
                          const float* b, float beta, float* c) const {
  run(kstats(), m, n, k, alpha, a, /*a_is=*/k, /*a_ps=*/1,
      strided_b(b, /*b_ps=*/n, /*b_js=*/1), beta, c);
}

void BlockedBackend::gemm_at(long m, long n, long k, float alpha,
                             const float* a, const float* b, float beta,
                             float* c) const {
  // A stored [k,m]: A^T(i,p) = a[p*m + i].
  run(kstats(), m, n, k, alpha, a, /*a_is=*/1, /*a_ps=*/m,
      strided_b(b, /*b_ps=*/n, /*b_js=*/1), beta, c);
}

void BlockedBackend::gemm_bt(long m, long n, long k, float alpha,
                             const float* a, const float* b, float beta,
                             float* c) const {
  // B stored [n,k]: B^T(p,j) = b[j*k + p].
  run(kstats(), m, n, k, alpha, a, /*a_is=*/k, /*a_ps=*/1,
      strided_b(b, /*b_ps=*/1, /*b_js=*/k), beta, c);
}

void BlockedBackend::conv_gemm(const ConvShape& s, const float* x,
                               const float* weight, float* y) const {
  // Implicit GEMM: B is the batch column matrix, packed panel by panel
  // from x by each shard; it is never materialized.
  const auto pack_x = [&s, x](long pc, long kc, long jc, long nc,
                              float* dst) {
    pack_b_conv(s, x, pc, kc, jc, nc, dst);
  };
  run(kstats(), s.out_c, s.n * s.spatial(), s.cols_k(), 1.0f, weight,
      /*a_is=*/s.cols_k(), /*a_ps=*/1, pack_x, 0.0f, y);
}

}  // namespace ber::kernels
