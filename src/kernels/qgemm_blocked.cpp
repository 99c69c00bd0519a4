// int8 compute-on-codes GEMM for the blocked backend.
//
// NOTE: like blocked_backend.cpp, this translation unit is compiled with
// -march=native (see CMakeLists.txt); nothing else in the library gets that
// flag.
//
// Algorithm (both layouts reduce to one channel-major core):
//   1. Activations are quantized once per call, symmetric 8-bit per output
//      column: sx_j = absmax(x[:, j]) / 127, p = round(x/sx_j) in
//      [-127, 127], stored biased as u8 = p + 128 because AVX512-VNNI's
//      VPDPBUSD takes an unsigned left operand. The bias is exact to
//      remove: dp = sum (p+128)*q adds 128 * row_sum(q), and the view
//      precomputes those row sums. Per-column (per spatial position /
//      per sample) scales matter beyond accuracy: each output column
//      depends only on its own input column, so a forward's results do
//      not change with how requests are batched together — the serving
//      pool pins that bit-for-bit (tests/test_serve.cpp).
//   2. The GEMM runs over the stored int8 levels q with int32 accumulation.
//      VPDPBUSD contributes 4 k-steps per lane per instruction, so
//      activations are packed into [k/4][64-column][4] byte panels and the
//      micro-kernel keeps a 4-row x 64-column int32 accumulator block.
//   3. The writeback folds everything the float path did in separate passes:
//      y = (slope*sx_j) * (dp - 128*row_sum_q[i])
//          + (shift*sx_j) * colsum_p[j] + bias[i], then optional ReLU.
//      `slope/shift` are the exact affine decode of the scheme
//      (quant/quantizer.h:decode_affine), so the result equals
//      decoded-weights x quantized-activations exactly; the only error vs
//      the scalar oracle is the activation quantization.
//
// The non-VNNI fallback accumulates the identical integers with scalar
// loops and shares the same writeback expression (std::fma where the vector
// path uses a fused multiply-add), so both paths agree bit for bit.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/arena.h"
#include "kernels/blocked_backend.h"
#include "kernels/conv.h"
#include "obs/kernel_stats.h"

#if defined(__AVX512F__) && defined(__AVX512VNNI__)
// GCC 12 reports "'__Y' may be used uninitialized" inside the AVX-512
// intrinsics it inlines here (masked loads and reductions; a false
// positive, https://gcc.gnu.org/bugzilla/show_bug.cgi?id=105593). The
// warning is located in the intrinsic headers, so it is silenced for those
// headers only; this file's own code keeps it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define BER_QGEMM_VNNI 1
#endif

namespace ber::kernels {

namespace {

constexpr long kQMR = 4;   // W rows per register tile
constexpr long kQNR = 64;  // activation columns per tile (4 zmm of int32)

// Tallies for the non-fallback paths only; the scalar-oracle fallbacks count
// inside Backend::qgemm/qgemm_bt.
inline void count_qgemm(const Backend& bk, const QWeightView& w, long n) {
  obs::KernelStats& ks = bk.kstats();
  ks.qgemm_calls->add(1);
  ks.qgemm_flops->add(2ull * static_cast<unsigned long long>(w.rows) *
                      static_cast<unsigned long long>(w.cols) *
                      static_cast<unsigned long long>(n));
}

#if defined(BER_QGEMM_VNNI)
float absmax(const float* x, long n) {
  __m512 acc = _mm512_setzero_ps();
  for (long t = 0; t < n; t += 16) {
    const long rem = n - t;
    const __mmask16 mask =
        rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                  : static_cast<__mmask16>((1u << rem) - 1u);
    acc = _mm512_max_ps(acc, _mm512_abs_ps(_mm512_maskz_loadu_ps(mask, x + t)));
  }
  return _mm512_reduce_max_ps(acc);
}
#else
float absmax(const float* x, long n) {
  float m = 0.0f;
  for (long i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}
#endif

// Folds the per-column activation scale into the quantization and writeback
// multipliers: invj = 127/colmax (0 for all-zero columns), swj = slope*sx,
// scj = shift*sx with sx = colmax/127.
void compute_scales(const QWeightView& w, const float* colmax, long n,
                    float* invj, float* swj, float* scj) {
  for (long j = 0; j < n; ++j) {
    const float sx = colmax[j] > 0.0f ? colmax[j] / 127.0f : 0.0f;
    invj[j] = colmax[j] > 0.0f ? 127.0f / colmax[j] : 0.0f;
    swj[j] = w.slope * sx;
    if (scj != nullptr) scj[j] = w.shift * sx;
  }
}

// Pads W levels to a [round_up(rows, kQMR)] x [k4*4] block (zero fill): the
// micro-kernel always broadcasts full dwords and full row quads; zero levels
// contribute nothing.
const std::int8_t* pad_weights(const QWeightView& w, long k4, Arena& arena) {
  const long kp = k4 * 4;
  const long rows_pad = ((w.rows + kQMR - 1) / kQMR) * kQMR;
  std::int8_t* wq = reinterpret_cast<std::int8_t*>(
      arena.alloc_bytes(static_cast<std::size_t>(rows_pad * kp)));
  std::memset(wq, 0, static_cast<std::size_t>(rows_pad * kp));
  for (long i = 0; i < w.rows; ++i) {
    std::memcpy(wq + i * kp, w.q + i * w.cols,
                static_cast<std::size_t>(w.cols));
  }
  return wq;
}

#if BER_QGEMM_VNNI

// Quantizes one k-row of a row-major column matrix: dst[j] =
// round(src[j] * invj[j]) + 128 for j in [0, n), clamped to [-127, 127]
// before biasing. Masked stores — never writes past dst + n. When `colsum`
// is non-null the unbiased levels are accumulated into it in the same pass
// (exactly the integers the scalar fallback sums).
void quantize_row_u8_cols(const float* src, long n, const float* invj,
                          std::uint8_t* dst, std::int32_t* colsum) {
  const __m512i vlo = _mm512_set1_epi32(-127);
  const __m512i vhi = _mm512_set1_epi32(127);
  const __m512i vbias = _mm512_set1_epi32(128);
  for (long t = 0; t < n; t += 16) {
    const long rem = n - t;
    const __mmask16 mask =
        rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                  : static_cast<__mmask16>((1u << rem) - 1u);
    const __m512 xv = _mm512_maskz_loadu_ps(mask, src + t);
    const __m512 iv = _mm512_maskz_loadu_ps(mask, invj + t);
    __m512i pi = _mm512_cvtps_epi32(_mm512_mul_ps(xv, iv));
    pi = _mm512_min_epi32(_mm512_max_epi32(pi, vlo), vhi);
    if (colsum != nullptr) {
      const __m512i cs = _mm512_maskz_loadu_epi32(mask, colsum + t);
      _mm512_mask_storeu_epi32(colsum + t, mask, _mm512_add_epi32(cs, pi));
    }
    _mm512_mask_cvtepi32_storeu_epi8(dst + t, mask,
                                     _mm512_add_epi32(pi, vbias));
  }
}

// Quantizes `count` floats of `src` into biased u8 levels (p + 128) at
// `dst`, which must have room for round_up(count, 16); lanes past `count`
// get the pad value 128 (p = 0). Returns sum of the (unbiased) levels.
std::int64_t quantize_row_u8(const float* src, long count, long padded,
                             float inv, std::uint8_t* dst) {
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512i vlo = _mm512_set1_epi32(-127);
  const __m512i vhi = _mm512_set1_epi32(127);
  const __m512i vbias = _mm512_set1_epi32(128);
  __m512i vsum = _mm512_setzero_si512();
  for (long t = 0; t < padded; t += 16) {
    const long rem = count - t;
    const __mmask16 mask =
        rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                  : static_cast<__mmask16>(rem > 0 ? (1u << rem) - 1u : 0u);
    const __m512 xv = _mm512_maskz_loadu_ps(mask, src + t);
    __m512i pi = _mm512_cvtps_epi32(_mm512_mul_ps(xv, vinv));
    pi = _mm512_min_epi32(_mm512_max_epi32(pi, vlo), vhi);
    vsum = _mm512_add_epi32(vsum, pi);
    const __m512i biased = _mm512_add_epi32(pi, vbias);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + t),
                     _mm512_cvtepi32_epi8(biased));
  }
  return _mm512_reduce_add_epi32(vsum);
}

// Interleaves 4 quantized k-rows (qrow, each `n` bytes, consecutive) into
// the packed panels' dword lanes for k-group ki. Lanes past n get the
// biased zero 0x80808080.
void pack_qrows(const std::uint8_t* qrow, long n, long ki, long k4,
                std::uint8_t* xpack) {
  for (long j0 = 0; j0 < n; j0 += kQNR) {
    std::uint32_t* dst = reinterpret_cast<std::uint32_t*>(
        xpack + ((j0 / kQNR) * k4 + ki) * (kQNR * 4));
    const long jb = std::min(kQNR, n - j0);
    const std::uint8_t* r0 = qrow + j0;
    const std::uint8_t* r1 = qrow + n + j0;
    const std::uint8_t* r2 = qrow + 2 * n + j0;
    const std::uint8_t* r3 = qrow + 3 * n + j0;
    // 4x16 byte transpose per group of 16 columns: two unpack levels turn
    // four 16-byte row slices into sixteen [r0 r1 r2 r3] dwords.
    const long jb16 = jb & ~15L;
    for (long j = 0; j < jb16; j += 16) {
      const __m128i a0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + j));
      const __m128i a1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + j));
      const __m128i a2 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r2 + j));
      const __m128i a3 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r3 + j));
      const __m128i lo01 = _mm_unpacklo_epi8(a0, a1);
      const __m128i hi01 = _mm_unpackhi_epi8(a0, a1);
      const __m128i lo23 = _mm_unpacklo_epi8(a2, a3);
      const __m128i hi23 = _mm_unpackhi_epi8(a2, a3);
      __m128i* out = reinterpret_cast<__m128i*>(dst + j);
      _mm_storeu_si128(out + 0, _mm_unpacklo_epi16(lo01, lo23));
      _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(lo01, lo23));
      _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(hi01, hi23));
      _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(hi01, hi23));
    }
    for (long j = jb16; j < jb; ++j) {
      dst[j] = static_cast<std::uint32_t>(r0[j]) |
               (static_cast<std::uint32_t>(r1[j]) << 8) |
               (static_cast<std::uint32_t>(r2[j]) << 16) |
               (static_cast<std::uint32_t>(r3[j]) << 24);
    }
    for (long j = jb; j < kQNR; ++j) dst[j] = 0x80808080u;
  }
}

// The register micro-kernel plus fused writeback for one [i0, j0] tile of
// channel-major y [rows, ld]. xpanel points at this j-block's packed
// activations ([k4][kQNR*4] bytes).
void tile_vnni(const std::int8_t* wq, long kp, long k4, long i0, long mb,
               const std::uint8_t* xpanel, long j0, long n,
               const std::int32_t* row_sums, const std::int32_t* colsum,
               const float* swj, const float* scj, const QEpilogue& ep,
               float* y, long ld) {
  __m512i acc[kQMR][4];
  for (long r = 0; r < kQMR; ++r) {
    for (int v = 0; v < 4; ++v) acc[r][v] = _mm512_setzero_si512();
  }
  for (long ki = 0; ki < k4; ++ki) {
    const std::uint8_t* xp = xpanel + ki * (kQNR * 4);
    const __m512i x0 = _mm512_loadu_si512(xp);
    const __m512i x1 = _mm512_loadu_si512(xp + 64);
    const __m512i x2 = _mm512_loadu_si512(xp + 128);
    const __m512i x3 = _mm512_loadu_si512(xp + 192);
    for (long r = 0; r < kQMR; ++r) {
      std::int32_t wd;
      std::memcpy(&wd, wq + (i0 + r) * kp + ki * 4, 4);
      const __m512i wb = _mm512_set1_epi32(wd);
      acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], x0, wb);
      acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], x1, wb);
      acc[r][2] = _mm512_dpbusd_epi32(acc[r][2], x2, wb);
      acc[r][3] = _mm512_dpbusd_epi32(acc[r][3], x3, wb);
    }
  }
  const __m512 vzero = _mm512_setzero_ps();
  for (long r = 0; r < mb; ++r) {
    const __m512i vcorr = _mm512_set1_epi32(128 * row_sums[i0 + r]);
    const __m512 vbias =
        _mm512_set1_ps(ep.bias != nullptr ? ep.bias[i0 + r] : 0.0f);
    for (int v = 0; v < 4; ++v) {
      const long j = j0 + 16 * v;
      if (j >= n) break;
      const long rem = n - j;
      const __mmask16 mask =
          rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                    : static_cast<__mmask16>((1u << rem) - 1u);
      const __m512 dpf =
          _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r][v], vcorr));
      const __m512 vsw = _mm512_maskz_loadu_ps(mask, swj + j);
      __m512 yv = _mm512_mul_ps(dpf, vsw);
      if (colsum != nullptr) {
        const __m512 vsc = _mm512_maskz_loadu_ps(mask, scj + j);
        const __m512 cs = _mm512_cvtepi32_ps(
            _mm512_maskz_loadu_epi32(mask, colsum + j));
        yv = _mm512_fmadd_ps(vsc, cs, yv);
      }
      if (ep.bias != nullptr) yv = _mm512_add_ps(yv, vbias);
      if (ep.relu) yv = _mm512_max_ps(yv, vzero);
      _mm512_mask_storeu_ps(y + (i0 + r) * ld + j, mask, yv);
    }
  }
}

// plane[p] = max over channels of |xi[c * hw + p]|.
void channel_absmax(const float* xi, long in_c, long hw, float* plane) {
  std::memset(plane, 0, sizeof(float) * static_cast<std::size_t>(hw));
  for (long c = 0; c < in_c; ++c) {
    const float* xc = xi + c * hw;
    for (long t = 0; t < hw; t += 16) {
      const long rem = hw - t;
      const __mmask16 mask =
          rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                    : static_cast<__mmask16>((1u << rem) - 1u);
      const __m512 pv = _mm512_maskz_loadu_ps(mask, plane + t);
      const __m512 xv = _mm512_abs_ps(_mm512_maskz_loadu_ps(mask, xc + t));
      _mm512_mask_storeu_ps(plane + t, mask, _mm512_max_ps(pv, xv));
    }
  }
}

// Quantizes im2col row k = (c, kh, kw) of the whole batch straight from x:
// for each output position the sampled input element (0 in the padding
// ring) is scaled by that column's invj, rounded, clamped and biased —
// exactly the bytes quantize_row_u8_cols would produce from a materialized
// column matrix. Each output row is a (clipped) contiguous slice of an
// input row, so the interior runs through the vector quantizer.
void quantize_im2col_row(const ConvShape& s, const float* x, long k,
                         const float* invj, std::uint8_t* qdst,
                         std::int32_t* colsum) {
  const long K = s.kernel, ohn = s.oh(), own = s.ow(), sp = ohn * own;
  const long c = k / (K * K), kh = (k / K) % K, kw = k % K;
  for (long i = 0; i < s.n; ++i) {
    const float* pl = x + (i * s.in_c + c) * s.h * s.w;
    for (long oy = 0; oy < ohn; ++oy) {
      const long iy = oy * s.stride + kh - s.pad;
      const long base = i * sp + oy * own;
      std::uint8_t* dst = qdst + base;
      if (iy < 0 || iy >= s.h) {  // whole row in the padding ring: level 0
        std::memset(dst, 128, static_cast<std::size_t>(own));
        continue;
      }
      const float* row = pl + iy * s.w;
      const float* iv = invj + base;
      std::int32_t* cs = colsum != nullptr ? colsum + base : nullptr;
      if (s.stride == 1) {
        const long x0 = kw - s.pad;  // ix = ox + x0
        const long lo = std::clamp(-x0, 0L, own);
        const long hi = std::clamp(s.w - x0, lo, own);
        if (lo > 0) std::memset(dst, 128, static_cast<std::size_t>(lo));
        if (hi > lo) {
          quantize_row_u8_cols(row + x0 + lo, hi - lo, iv + lo, dst + lo,
                               cs != nullptr ? cs + lo : nullptr);
        }
        if (hi < own) {
          std::memset(dst + hi, 128, static_cast<std::size_t>(own - hi));
        }
      } else {
        for (long ox = 0; ox < own; ++ox) {
          const long ix = ox * s.stride + kw - s.pad;
          if (ix < 0 || ix >= s.w) {
            dst[ox] = 128;
            continue;
          }
          const long p =
              std::clamp(std::lrintf(row[ix] * iv[ox]), -127L, 127L);
          dst[ox] = static_cast<std::uint8_t>(p + 128);
          if (cs != nullptr) cs[ox] += static_cast<std::int32_t>(p);
        }
      }
    }
  }
}

#else  // !BER_QGEMM_VNNI

long round_level(float x, float inv) {
  const long v = std::lrintf(x * inv);
  return std::clamp(v, -127L, 127L);
}

#endif  // BER_QGEMM_VNNI

// y [rows, n] (ld = n) = W levels x quantized activations + epilogue, with
// the activation matrix described by strides: X'(k, j) = x[k*xs_k + j*xs_j]
// for k in [0, cols), j in [0, n). Conv passes the column matrix directly
// (xs_k = n, xs_j = 1); the Linear wrapper passes its input transposed
// (xs_k = 1, xs_j = cols) and transposes the channel-major result back.
void qgemm_core(const QWeightView& w, long n, const float* x, long xs_k,
                long xs_j, float* y, const QEpilogue& ep, Arena& arena) {
  const long k4 = (w.cols + 3) / 4;
  const long kp = k4 * 4;
  const bool need_colsum = w.shift != 0.0f;

  // Per-column symmetric activation scales (see the file header): colmax[j]
  // = absmax over x[:, j], invj[j] = 127/colmax, and the writeback scales
  // swj = slope*sx_j, scj = shift*sx_j folded once up front.
  float* colmax = arena.alloc(static_cast<std::size_t>(n));
  if (xs_j == 1) {
    std::memset(colmax, 0, sizeof(float) * static_cast<std::size_t>(n));
#if BER_QGEMM_VNNI
    for (long k = 0; k < w.cols; ++k) {
      const float* xk = x + k * xs_k;
      for (long t = 0; t < n; t += 16) {
        const long rem = n - t;
        const __mmask16 mask =
            rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                      : static_cast<__mmask16>((1u << rem) - 1u);
        const __m512 cv = _mm512_maskz_loadu_ps(mask, colmax + t);
        const __m512 xv = _mm512_abs_ps(_mm512_maskz_loadu_ps(mask, xk + t));
        _mm512_mask_storeu_ps(colmax + t, mask, _mm512_max_ps(cv, xv));
      }
    }
#else
    for (long k = 0; k < w.cols; ++k) {
      const float* xk = x + k * xs_k;
      for (long j = 0; j < n; ++j) {
        colmax[j] = std::max(colmax[j], std::fabs(xk[j]));
      }
    }
#endif
  } else {
    for (long j = 0; j < n; ++j) colmax[j] = absmax(x + j * xs_j, w.cols);
  }
  float* invj = arena.alloc(static_cast<std::size_t>(n));
  float* swj = arena.alloc(static_cast<std::size_t>(n));
  float* scj =
      need_colsum ? arena.alloc(static_cast<std::size_t>(n)) : nullptr;
  compute_scales(w, colmax, n, invj, swj, scj);

  const std::int8_t* wq = pad_weights(w, k4, arena);
  std::int32_t* colsum =
      need_colsum ? arena.alloc_i32(static_cast<std::size_t>(n)) : nullptr;

#if BER_QGEMM_VNNI
  const long nblocks = (n + kQNR - 1) / kQNR;
  std::uint8_t* xpack = arena.alloc_bytes(
      static_cast<std::size_t>(nblocks * k4 * kQNR * 4));
  if (xs_j == 1) {
    // Row-major source (conv column matrix): quantize 4 k-rows at a time
    // and interleave them into the panels' dword lanes.
    std::uint8_t* qrow = arena.alloc_bytes(static_cast<std::size_t>(4 * n));
    if (colsum) std::memset(colsum, 0, sizeof(std::int32_t) *
                                           static_cast<std::size_t>(n));
    for (long ki = 0; ki < k4; ++ki) {
      for (long kk = 0; kk < 4; ++kk) {
        const long k = ki * 4 + kk;
        std::uint8_t* dst = qrow + kk * n;
        if (k < w.cols) {
          quantize_row_u8_cols(x + k * xs_k, n, invj, dst, colsum);
        } else {
          std::memset(dst, 128, static_cast<std::size_t>(n));
        }
      }
      pack_qrows(qrow, n, ki, k4, xpack);
    }
  } else {
    // Column-strided source (transposed Linear input): each j is a
    // k-contiguous row of the original X, so quantize it in one sweep.
    // Columns are packed 16 at a time so every panel write is a full,
    // sequential 64-byte line (a per-column dword scatter touches k4 cache
    // lines per column and dominated the small-GEMM profile). Pad columns
    // (j >= n) get level 0 (biased 128), so no up-front panel memset.
    const long kp16 = ((kp + 15) / 16) * 16;
    std::uint8_t* qrow16 =
        arena.alloc_bytes(static_cast<std::size_t>(16 * kp16));
    const long stride = kp16 / 4;  // dwords per quantized row
    for (long g = 0; g < nblocks * kQNR; g += 16) {
      for (long l = 0; l < 16; ++l) {
        const long j = g + l;
        std::uint8_t* row = qrow16 + l * kp16;
        if (j < n) {
          const std::int64_t psum =
              quantize_row_u8(x + j * xs_j, w.cols, kp, invj[j], row);
          if (colsum) colsum[j] = static_cast<std::int32_t>(psum);
        } else {
          std::memset(row, 128, static_cast<std::size_t>(kp));
        }
      }
      std::uint32_t* base = reinterpret_cast<std::uint32_t*>(
          xpack + (g / kQNR) * k4 * (kQNR * 4) + (g % kQNR) * 4);
      const std::uint32_t* src =
          reinterpret_cast<const std::uint32_t*>(qrow16);
      for (long ki = 0; ki < k4; ++ki) {
        alignas(64) std::uint32_t line[16];
        for (long l = 0; l < 16; ++l) line[l] = src[l * stride + ki];
        std::memcpy(base + ki * kQNR, line, 64);
      }
    }
  }

  // Column blocks outer: one packed panel (k4 * 256B) stays L1-resident
  // across every row tile, so the multi-megabyte packed matrix is streamed
  // from memory once, not rows/kQMR times.
  for (long j0 = 0; j0 < n; j0 += kQNR) {
    const std::uint8_t* panel = xpack + (j0 / kQNR) * k4 * (kQNR * 4);
    for (long i0 = 0; i0 < w.rows; i0 += kQMR) {
      tile_vnni(wq, kp, k4, i0, std::min(kQMR, w.rows - i0), panel, j0, n,
                w.row_sums, colsum, swj, scj, ep, y, n);
    }
  }
#else
  // Scalar fallback: identical integers (same rounding, same int32 sums),
  // same writeback expression — only the instruction selection differs.
  std::int8_t* xq = reinterpret_cast<std::int8_t*>(
      arena.alloc_bytes(static_cast<std::size_t>(w.cols * n)));
  if (colsum) {
    std::memset(colsum, 0,
                sizeof(std::int32_t) * static_cast<std::size_t>(n));
  }
  for (long k = 0; k < w.cols; ++k) {
    for (long j = 0; j < n; ++j) {
      const long p = round_level(x[k * xs_k + j * xs_j], invj[j]);
      xq[k * n + j] = static_cast<std::int8_t>(p);
      if (colsum) colsum[j] += static_cast<std::int32_t>(p);
    }
  }
  std::int32_t* accrow = arena.alloc_i32(static_cast<std::size_t>(n));
  for (long i = 0; i < w.rows; ++i) {
    std::memset(accrow, 0, sizeof(std::int32_t) * static_cast<std::size_t>(n));
    const std::int8_t* qi = w.q + i * w.cols;
    for (long k = 0; k < w.cols; ++k) {
      const std::int32_t qv = qi[k];
      if (qv == 0) continue;
      const std::int8_t* xk = xq + k * n;
      for (long j = 0; j < n; ++j) accrow[j] += qv * xk[j];
    }
    const float b = ep.bias != nullptr ? ep.bias[i] : 0.0f;
    float* yi = y + i * n;
    for (long j = 0; j < n; ++j) {
      float v = static_cast<float>(accrow[j]) * swj[j];
      if (colsum) v = std::fma(scj[j], static_cast<float>(colsum[j]), v);
      if (ep.bias != nullptr) v += b;
      if (ep.relu && !(v > 0.0f)) v = 0.0f;
      yi[j] = v;
    }
  }
  (void)wq;
  (void)kp;
#endif
}

}  // namespace

void BlockedBackend::qgemm(const QWeightView& w, long n, const float* x,
                           float* y, const QEpilogue& ep) const {
  if (!w.has_int8() || w.rows <= 0 || w.cols <= 0 || n <= 0) {
    Backend::qgemm(w, n, x, y, ep);  // scalar oracle (bits > 8 / degenerate)
    return;
  }
  count_qgemm(*this, w, n);
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  qgemm_core(w, n, x, /*xs_k=*/n, /*xs_j=*/1, y, ep, arena);
}

void BlockedBackend::qgemm_bt(const QWeightView& w, long m, const float* x,
                              float* y, const QEpilogue& ep) const {
  if (!w.has_int8() || w.rows <= 0 || w.cols <= 0 || m <= 0) {
    Backend::qgemm_bt(w, m, x, y, ep);
    return;
  }
  count_qgemm(*this, w, m);
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  // Run the channel-major core on X^T (a stride choice, not a copy), then
  // transpose the [rows, m] result into the [m, rows] output. The epilogue
  // is per output channel, i.e. per core row, so it is already applied.
  float* tmp = arena.alloc(static_cast<std::size_t>(w.rows * m));
  qgemm_core(w, m, x, /*xs_k=*/1, /*xs_j=*/w.cols, tmp, ep, arena);
  // Blocked transpose: both the 32-row source window and the 32-column
  // destination window stay cache-resident.
  constexpr long kTB = 32;
  for (long r0 = 0; r0 < m; r0 += kTB) {
    const long rb = std::min(kTB, m - r0);
    for (long i0 = 0; i0 < w.rows; i0 += kTB) {
      const long ib = std::min(kTB, w.rows - i0);
      for (long i = i0; i < i0 + ib; ++i) {
        const float* src = tmp + i * m;
        for (long r = r0; r < r0 + rb; ++r) y[r * w.rows + i] = src[r];
      }
    }
  }
}

void BlockedBackend::qconv(const ConvShape& s, const float* x,
                           const QWeightView& w, const QEpilogue& ep,
                           float* y) const {
#if BER_QGEMM_VNNI
  const long ohn = s.oh(), own = s.ow();
  const long sp = ohn * own, ld = s.n * sp;
  if (!w.has_int8() || w.rows <= 0 || w.cols <= 0 || ld <= 0 ||
      w.cols != s.cols_k() || w.rows != s.out_c) {
    Backend::qconv(s, x, w, ep, y);  // scalar oracle (bits > 8 / degenerate)
    return;
  }
  // The whole batch-wide GEMM once; the oracle above tallies through its
  // per-image qgemm calls instead.
  kstats().qgemm_flops->add(2ull * static_cast<unsigned long long>(w.rows) *
                            static_cast<unsigned long long>(w.cols) *
                            static_cast<unsigned long long>(ld));
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  const long k4 = (w.cols + 3) / 4;
  const long kp = k4 * 4;
  const long K = s.kernel;
  const bool need_colsum = w.shift != 0.0f;

  // Per-column |x| maxima without the column matrix: a column's patch max
  // is a K x K window max over the channel-max plane (separable: horizontal
  // pass over input rows, then vertical over window rows). O(N*(C+K)*H*W)
  // reads of the input vs O(N*C*K*K*H*W) of the lowered matrix.
  float* colmax = arena.alloc(static_cast<std::size_t>(ld));
  {
    float* plane = arena.alloc(static_cast<std::size_t>(s.h * s.w));
    float* hmax = arena.alloc(static_cast<std::size_t>(s.h * own));
    for (long i = 0; i < s.n; ++i) {
      channel_absmax(x + i * s.in_c * s.h * s.w, s.in_c, s.h * s.w, plane);
      for (long iy = 0; iy < s.h; ++iy) {
        const float* pr = plane + iy * s.w;
        float* hr = hmax + iy * own;
        for (long ox = 0; ox < own; ++ox) {
          const long x0 = ox * s.stride - s.pad;
          float m = 0.0f;
          for (long dx = 0; dx < K; ++dx) {
            const long ix = x0 + dx;
            if (ix >= 0 && ix < s.w) m = std::max(m, pr[ix]);
          }
          hr[ox] = m;
        }
      }
      float* cm = colmax + i * sp;
      for (long oy = 0; oy < ohn; ++oy) {
        const long y0 = oy * s.stride - s.pad;
        float* cr = cm + oy * own;
        std::memset(cr, 0, sizeof(float) * static_cast<std::size_t>(own));
        for (long dy = 0; dy < K; ++dy) {
          const long iy = y0 + dy;
          if (iy < 0 || iy >= s.h) continue;
          const float* hr = hmax + iy * own;
          for (long ox = 0; ox < own; ++ox) {
            cr[ox] = std::max(cr[ox], hr[ox]);
          }
        }
      }
    }
  }
  float* invj = arena.alloc(static_cast<std::size_t>(ld));
  float* swj = arena.alloc(static_cast<std::size_t>(ld));
  float* scj =
      need_colsum ? arena.alloc(static_cast<std::size_t>(ld)) : nullptr;
  compute_scales(w, colmax, ld, invj, swj, scj);

  // Quantize + pack straight from x, 4 k-rows per panel dword group.
  const std::int8_t* wq = pad_weights(w, k4, arena);
  std::int32_t* colsum =
      need_colsum ? arena.alloc_i32(static_cast<std::size_t>(ld)) : nullptr;
  if (colsum != nullptr) {
    std::memset(colsum, 0, sizeof(std::int32_t) * static_cast<std::size_t>(ld));
  }
  const long nblocks = (ld + kQNR - 1) / kQNR;
  std::uint8_t* xpack =
      arena.alloc_bytes(static_cast<std::size_t>(nblocks * k4 * kQNR * 4));
  std::uint8_t* qrow = arena.alloc_bytes(static_cast<std::size_t>(4 * ld));
  for (long ki = 0; ki < k4; ++ki) {
    for (long kk = 0; kk < 4; ++kk) {
      const long k = ki * 4 + kk;
      std::uint8_t* dst = qrow + kk * ld;
      if (k < w.cols) {
        quantize_im2col_row(s, x, k, invj, dst, colsum);
      } else {
        std::memset(dst, 128, static_cast<std::size_t>(ld));
      }
    }
    pack_qrows(qrow, ld, ki, k4, xpack);
  }

  // One batch-wide GEMM into channel-major tmp [out_c, N*sp], panels
  // streamed once (column blocks outer, as in qgemm_core), then the
  // coalesced writeback to [N, out_c, sp]. The epilogue already ran per
  // channel row inside the tiles.
  float* tmp = arena.alloc(static_cast<std::size_t>(w.rows * ld));
  for (long j0 = 0; j0 < ld; j0 += kQNR) {
    const std::uint8_t* panel = xpack + (j0 / kQNR) * k4 * (kQNR * 4);
    for (long i0 = 0; i0 < w.rows; i0 += kQMR) {
      tile_vnni(wq, kp, k4, i0, std::min(kQMR, w.rows - i0), panel, j0, ld,
                w.row_sums, colsum, swj, scj, ep, tmp, ld);
    }
  }
  for (long i = 0; i < s.n; ++i) {
    for (long c = 0; c < s.out_c; ++c) {
      std::memcpy(y + (i * s.out_c + c) * sp, tmp + c * ld + i * sp,
                  sizeof(float) * static_cast<std::size_t>(sp));
    }
  }
#else
  // Without VNNI the fused packing buys nothing over the oracle's per-image
  // lowering (which dispatches back into the scalar qgemm fallback above).
  Backend::qconv(s, x, w, ep, y);
#endif
}

}  // namespace ber::kernels
