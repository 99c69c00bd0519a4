#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace ber {

void gemm(long m, long n, long k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  if (beta == 0.0f) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  } else if (beta != 1.0f) {
    for (long i = 0; i < m * n; ++i) c[i] *= beta;
  }
  for (long i = 0; i < m; ++i) {
    float* __restrict ci = c + i * n;
    const float* ai = a + i * k;
    for (long p = 0; p < k; ++p) {
      const float av = alpha * ai[p];
      if (av == 0.0f) continue;
      const float* __restrict bp = b + p * n;
      for (long j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void gemm_at(long m, long n, long k, float alpha, const float* a,
             const float* b, float beta, float* c) {
  if (beta == 0.0f) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  } else if (beta != 1.0f) {
    for (long i = 0; i < m * n; ++i) c[i] *= beta;
  }
  // A stored [k,m]: A^T(i,p) = a[p*m + i].
  for (long p = 0; p < k; ++p) {
    const float* ap = a + p * m;
    const float* __restrict bp = b + p * n;
    for (long i = 0; i < m; ++i) {
      const float av = alpha * ap[i];
      if (av == 0.0f) continue;
      float* __restrict ci = c + i * n;
      for (long j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void gemm_bt(long m, long n, long k, float alpha, const float* a,
             const float* b, float beta, float* c) {
  if (beta == 0.0f) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  } else if (beta != 1.0f) {
    for (long i = 0; i < m * n; ++i) c[i] *= beta;
  }
  // B stored [n,k]: B^T(p,j) = b[j*k + p]. Dot products over k are
  // contiguous in both operands.
  for (long i = 0; i < m; ++i) {
    const float* __restrict ai = a + i * k;
    float* ci = c + i * n;
    for (long j = 0; j < n; ++j) {
      const float* __restrict bj = b + j * k;
      float acc = 0.0f;
      for (long p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] += alpha * acc;
    }
  }
}

long conv_out_size(long in, long kernel, long stride, long pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

void im2col(const float* img, long channels, long height, long width, long kh,
            long kw, long stride, long pad, float* col) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  im2col_ld(img, channels, height, width, kh, kw, stride, pad, col, oh * ow);
}

void im2col_ld(const float* img, long channels, long height, long width,
               long kh, long kw, long stride, long pad, float* col, long ld) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  long row = 0;
  for (long c = 0; c < channels; ++c) {
    const float* plane = img + c * height * width;
    for (long ki = 0; ki < kh; ++ki) {
      for (long kj = 0; kj < kw; ++kj, ++row) {
        float* __restrict out = col + row * ld;
        for (long y = 0; y < oh; ++y) {
          const long iy = y * stride - pad + ki;
          if (iy < 0 || iy >= height) {
            std::memset(out + y * ow, 0, sizeof(float) * static_cast<std::size_t>(ow));
            continue;
          }
          const float* src = plane + iy * width;
          float* dst = out + y * ow;
          if (stride == 1) {
            // ix = x + kj - pad: zero the padding edges, copy the interior.
            const long lo = std::clamp(pad - kj, 0L, ow);
            const long hi = std::clamp(width + pad - kj, lo, ow);
            std::fill(dst, dst + lo, 0.0f);
            if (hi > lo) {
              std::memcpy(dst + lo, src + (lo + kj - pad),
                          sizeof(float) * static_cast<std::size_t>(hi - lo));
            }
            std::fill(dst + hi, dst + ow, 0.0f);
            continue;
          }
          for (long x = 0; x < ow; ++x) {
            const long ix = x * stride - pad + kj;
            dst[x] = (ix >= 0 && ix < width) ? src[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* col, long channels, long height, long width, long kh,
            long kw, long stride, long pad, float* img) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  col2im_ld(col, channels, height, width, kh, kw, stride, pad, img, oh * ow);
}

void col2im_ld(const float* col, long channels, long height, long width,
               long kh, long kw, long stride, long pad, float* img, long ld) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  long row = 0;
  for (long c = 0; c < channels; ++c) {
    float* plane = img + c * height * width;
    for (long ki = 0; ki < kh; ++ki) {
      for (long kj = 0; kj < kw; ++kj, ++row) {
        const float* __restrict in = col + row * ld;
        for (long y = 0; y < oh; ++y) {
          const long iy = y * stride - pad + ki;
          if (iy < 0 || iy >= height) continue;
          float* dst = plane + iy * width;
          if (stride == 1) {
            // The same in-bounds x range as im2col_ld; each pixel still
            // gets its adds in (c, ki, kj, y) order.
            const long lo = std::clamp(pad - kj, 0L, ow);
            const long hi = std::clamp(width + pad - kj, lo, ow);
            if (hi <= lo) continue;
            float* __restrict d = dst + (lo + kj - pad);
            const float* __restrict v = in + y * ow + lo;
            for (long x = 0; x < hi - lo; ++x) d[x] += v[x];
            continue;
          }
          for (long x = 0; x < ow; ++x) {
            const long ix = x * stride - pad + kj;
            if (ix >= 0 && ix < width) dst[ix] += in[y * ow + x];
          }
        }
      }
    }
  }
}

void softmax_rows(Tensor& logits) {
  if (logits.dim() != 2) throw std::invalid_argument("softmax_rows: need 2-D");
  const long rows = logits.shape(0);
  const long cols = logits.shape(1);
  float* data = logits.data();
  for (long r = 0; r < rows; ++r) {
    float* row = data + r * cols;
    const float mx = *std::max_element(row, row + cols);
    float sum = 0.0f;
    for (long c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (long c = 0; c < cols; ++c) row[c] *= inv;
  }
}

long argmax_row(const Tensor& m, long r) {
  const long cols = m.shape(1);
  const float* row = m.data() + r * cols;
  return std::max_element(row, row + cols) - row;
}

}  // namespace ber
