// Tests for the tensor container and compute kernels (GEMM, im2col/col2im,
// softmax). GEMM variants are validated against a naive reference over a
// parameterized sweep of shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ber {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.shape(0), 2);
  EXPECT_EQ(t.shape(2), 4);
  EXPECT_EQ(t.shape_str(), "[2,3,4]");
  for (long i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, NegativeDimensionThrows) {
  EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full({5}, 2.5f);
  EXPECT_EQ(t[4], 2.5f);
  t.fill(-1.0f);
  EXPECT_EQ(t[0], -1.0f);
}

TEST(Tensor, FromDataAndMismatch) {
  Tensor t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_THROW(Tensor::from_data({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, At4d) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[t.numel() - 1], 7.0f);
}

TEST(Tensor, ReshapeInference) {
  Tensor t({2, 3, 4});
  Tensor r = t.reshaped({6, -1});
  EXPECT_EQ(r.shape(1), 4);
  EXPECT_THROW(t.reshaped({5, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshaped({-1, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshaped({25}), std::invalid_argument);
}

TEST(Tensor, AxpyScaleClamp) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  a.axpy(0.5f, b);
  EXPECT_EQ(a[2], 18.0f);
  a.scale(2.0f);
  EXPECT_EQ(a[0], 12.0f);
  a.clamp(0.0f, 25.0f);
  EXPECT_EQ(a[2], 25.0f);
  Tensor c({2});
  EXPECT_THROW(a.axpy(1.0f, c), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from_data({4}, {-3, 1, 2, -1});
  EXPECT_EQ(t.min(), -3.0f);
  EXPECT_EQ(t.max(), 2.0f);
  EXPECT_EQ(t.abs_max(), 3.0f);
  EXPECT_EQ(t.sum(), -1.0);
  EXPECT_EQ(t.mean(), -0.25);
}

TEST(Tensor, RandnMoments) {
  Rng rng(3);
  Tensor t = Tensor::randn({10000}, rng, 2.0f);
  EXPECT_NEAR(t.mean(), 0.0, 0.1);
  double sq = 0.0;
  for (long i = 0; i < t.numel(); ++i) sq += static_cast<double>(t[i]) * t[i];
  EXPECT_NEAR(std::sqrt(sq / t.numel()), 2.0, 0.1);
}

// ----- GEMM reference checks (parameterized over shapes) -----

void naive_gemm(long m, long n, long k, const float* a, const float* b,
                float* c) {
  for (long i = 0; i < m; ++i) {
    for (long j = 0; j < n; ++j) {
      double acc = 0.0;
      for (long p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 100 + n * 10 + k);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (long i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST_P(GemmShapes, TransposedAMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(m + n + k);
  Tensor at = Tensor::randn({k, m}, rng);  // stored transposed
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  // Build the untransposed A for the reference.
  Tensor a({m, k});
  for (long i = 0; i < m; ++i) {
    for (long p = 0; p < k; ++p) a.at(i, p) = at.at(p, i);
  }
  gemm_at(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (long i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST_P(GemmShapes, TransposedBMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 7 + n * 3 + k);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor bt = Tensor::randn({n, k}, rng);  // stored transposed
  Tensor b({k, n});
  for (long p = 0; p < k; ++p) {
    for (long j = 0; j < n; ++j) b.at(p, j) = bt.at(j, p);
  }
  Tensor c({m, n}), ref({m, n});
  gemm_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (long i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 5, 7),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(16, 33, 9),
                                           std::make_tuple(24, 144, 108),
                                           std::make_tuple(2, 64, 1)));

TEST(Gemm, AlphaBetaSemantics) {
  Tensor a = Tensor::from_data({1, 2}, {1, 2});
  Tensor b = Tensor::from_data({2, 1}, {3, 4});
  Tensor c = Tensor::from_data({1, 1}, {100});
  gemm(1, 1, 2, 2.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_EQ(c[0], 100.0f + 2.0f * 11.0f);
  gemm(1, 1, 2, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_EQ(c[0], 11.0f);
}

// ----- im2col / col2im -----

TEST(Im2col, KnownSmallCase) {
  // 1 channel 3x3 image, 3x3 kernel, pad 1: center column equals the image.
  Tensor img = Tensor::from_data({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const long oh = conv_out_size(3, 3, 1, 1);
  ASSERT_EQ(oh, 3);
  Tensor col({9, 9});
  im2col(img.data(), 1, 3, 3, 3, 3, 1, 1, col.data());
  // Row 4 (kernel center, ki=1, kj=1) reproduces the image.
  for (long i = 0; i < 9; ++i) EXPECT_EQ(col.at(4, i), img[i]);
  // Row 0 (ki=0, kj=0) is the image shifted down-right with zero padding.
  EXPECT_EQ(col.at(0, 0), 0.0f);
  EXPECT_EQ(col.at(0, 4), 1.0f);
  EXPECT_EQ(col.at(0, 8), 5.0f);
}

TEST(Im2col, StrideTwoShapes) {
  Tensor img({2, 4, 4});
  for (long i = 0; i < img.numel(); ++i) img[i] = static_cast<float>(i);
  const long oh = conv_out_size(4, 2, 2, 0);
  ASSERT_EQ(oh, 2);
  Tensor col({2 * 2 * 2, oh * oh});
  im2col(img.data(), 2, 4, 4, 2, 2, 2, 0, col.data());
  // First row = top-left element of each 2x2 window of channel 0.
  EXPECT_EQ(col.at(0, 0), 0.0f);
  EXPECT_EQ(col.at(0, 1), 2.0f);
  EXPECT_EQ(col.at(0, 2), 8.0f);
  EXPECT_EQ(col.at(0, 3), 10.0f);
}

TEST(Col2im, AdjointOfIm2col) {
  // <col, im2col(img)> == <col2im(col), img> for random operands — the
  // defining property that makes conv backward correct.
  Rng rng(17);
  const long c = 3, h = 5, w = 4, kh = 3, kw = 3, stride = 1, pad = 1;
  const long oh = conv_out_size(h, kh, stride, pad);
  const long ow = conv_out_size(w, kw, stride, pad);
  Tensor img = Tensor::randn({c, h, w}, rng);
  Tensor col({c * kh * kw, oh * ow});
  im2col(img.data(), c, h, w, kh, kw, stride, pad, col.data());

  Tensor rand_col = Tensor::randn(col.shape(), rng);
  Tensor back = Tensor::zeros({c, h, w});
  col2im(rand_col.data(), c, h, w, kh, kw, stride, pad, back.data());

  double lhs = 0.0, rhs = 0.0;
  for (long i = 0; i < col.numel(); ++i) {
    lhs += static_cast<double>(rand_col[i]) * col[i];
  }
  for (long i = 0; i < img.numel(); ++i) {
    rhs += static_cast<double>(back[i]) * img[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

TEST(Im2col, StrideOneRowsMatchDefinition) {
  // Stride-1 rows copy (im2col_ld) or add (col2im_ld) whole interior spans.
  // Both must equal the per-pixel definition bit for bit, for pads that
  // leave none, part or all of a row in bounds, with a leading dimension
  // wider than one image's columns.
  Rng rng(23);
  for (const long k : {1L, 3L, 5L}) {
    for (const long pad : {0L, 1L, 2L, 4L}) {
      for (const long w : {1L, 3L, 6L}) {
        const long c = 2, h = 4;
        const long oh = conv_out_size(h, k, 1, pad);
        const long ow = conv_out_size(w, k, 1, pad);
        if (oh < 1 || ow < 1) continue;
        const long ld = oh * ow + 3;
        const Tensor img = Tensor::randn({c, h, w}, rng);
        Tensor col({c * k * k, ld});
        im2col_ld(img.data(), c, h, w, k, k, 1, pad, col.data(), ld);
        const Tensor grad_col = Tensor::randn({c * k * k, ld}, rng);
        Tensor back = Tensor::randn({c, h, w}, rng);
        Tensor want = back;
        col2im_ld(grad_col.data(), c, h, w, k, k, 1, pad, back.data(), ld);
        long row = 0;
        for (long ch = 0; ch < c; ++ch) {
          for (long ki = 0; ki < k; ++ki) {
            for (long kj = 0; kj < k; ++kj, ++row) {
              for (long y = 0; y < oh; ++y) {
                for (long x = 0; x < ow; ++x) {
                  const long iy = y - pad + ki, ix = x - pad + kj;
                  const bool in = iy >= 0 && iy < h && ix >= 0 && ix < w;
                  const long at = row * ld + y * ow + x;
                  const float v = in ? img[(ch * h + iy) * w + ix] : 0.0f;
                  ASSERT_EQ(col[at], v)
                      << "k" << k << " pad" << pad << " w" << w;
                  if (in) want[(ch * h + iy) * w + ix] += grad_col[at];
                }
              }
            }
          }
        }
        for (long i = 0; i < back.numel(); ++i) {
          ASSERT_EQ(back[i], want[i]) << "k" << k << " pad" << pad << " w" << w;
        }
      }
    }
  }
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::randn({7, 10}, rng, 3.0f);
  softmax_rows(logits);
  for (long r = 0; r < 7; ++r) {
    double sum = 0.0;
    for (long c = 0; c < 10; ++c) {
      EXPECT_GE(logits.at(r, c), 0.0f);
      sum += logits.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, LargeLogitsStable) {
  Tensor logits = Tensor::from_data({1, 3}, {1000.0f, 999.0f, -1000.0f});
  softmax_rows(logits);
  EXPECT_FALSE(std::isnan(logits[0]));
  EXPECT_GT(logits.at(0, 0), logits.at(0, 1));
  EXPECT_NEAR(logits.at(0, 2), 0.0f, 1e-6f);
}

TEST(Softmax, ArgmaxRow) {
  Tensor m = Tensor::from_data({2, 3}, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(argmax_row(m, 0), 1);
  EXPECT_EQ(argmax_row(m, 1), 0);
}

TEST(ConvOutSize, Arithmetic) {
  EXPECT_EQ(conv_out_size(12, 3, 1, 1), 12);
  EXPECT_EQ(conv_out_size(12, 2, 2, 0), 6);
  EXPECT_EQ(conv_out_size(5, 3, 1, 0), 3);
}

}  // namespace
}  // namespace ber
