// GroupNorm / BatchNorm tests: normalization statistics, the App. E
// reparameterization, running statistics and gradients.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "nn/norm.h"
#include "test_util.h"

namespace ber {
namespace {

Tensor rand_input(std::vector<long> shape, std::uint64_t seed = 1,
                  float mean = 2.0f, float stddev = 3.0f) {
  Rng rng(seed);
  Tensor t = Tensor::randn(std::move(shape), rng, stddev);
  for (long i = 0; i < t.numel(); ++i) t[i] += mean;
  return t;
}

TEST(GroupNormTest, NormalizesPerGroup) {
  GroupNorm gn(2, 4);
  Tensor x = rand_input({2, 4, 3, 3});
  Tensor y = gn.forward(x, false);
  // With alpha' = 0, beta = 0 each (n, group) slab must be ~N(0, 1).
  const long spatial = 9, cpg = 2;
  for (long n = 0; n < 2; ++n) {
    for (long g = 0; g < 2; ++g) {
      double sum = 0.0, sq = 0.0;
      for (long cc = 0; cc < cpg; ++cc) {
        for (long s = 0; s < spatial; ++s) {
          const float v = y.data()[((n * 4 + g * cpg + cc) * spatial) + s];
          sum += v;
          sq += static_cast<double>(v) * v;
        }
      }
      const double m = sum / (cpg * spatial);
      const double var = sq / (cpg * spatial) - m * m;
      EXPECT_NEAR(m, 0.0, 1e-4);
      EXPECT_NEAR(var, 1.0, 1e-3);
    }
  }
}

TEST(GroupNormTest, ReparameterizedScale) {
  GroupNorm gn(1, 2);
  // alpha' = 0.5 means effective gamma = 1.5.
  gn.params()[0]->value.fill(0.5f);
  gn.params()[1]->value.fill(0.25f);
  Tensor x = rand_input({1, 2, 4, 4});
  Tensor y = gn.forward(x, false);
  // Mean of output should be beta (normalized input has zero mean), and
  // variance gamma^2.
  double sum = 0.0, sq = 0.0;
  for (long i = 0; i < y.numel(); ++i) {
    sum += y[i];
    sq += static_cast<double>(y[i]) * y[i];
  }
  const double m = sum / y.numel();
  EXPECT_NEAR(m, 0.25, 1e-3);
  EXPECT_NEAR(sq / y.numel() - m * m, 1.5 * 1.5, 2e-2);
}

TEST(GroupNormTest, RejectsBadGrouping) {
  EXPECT_THROW(GroupNorm(3, 4), std::invalid_argument);
}

TEST(GroupNormTest, Gradcheck) {
  GroupNorm gn(2, 4);
  Rng rng(5);
  for (Param* p : gn.params()) {
    for (long i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal() * 0.3f;
  }
  test::gradcheck_layer(gn, rand_input({2, 4, 3, 3}, 7), /*tol=*/3e-2);
}

TEST(GroupNormTest, TrainingStepBitIdenticalAcrossThreadCounts) {
  // 8 x 16 x 32 x 32 floats: above kIntraOpMinFloats, so forward and
  // backward split per image when more than one thread is asked. The
  // per-image param-grad partials are added in image order.
  GroupNorm gn(4, 16);
  Rng rng(3);
  for (Param* p : gn.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = 0.3f * rng.normal();
    }
  }
  test::expect_thread_invariant(gn, rand_input({8, 16, 32, 32}, 41));
}

TEST(BatchNormTest, TrainForwardNormalizes) {
  BatchNorm2d bn(3);
  Tensor x = rand_input({4, 3, 4, 4});
  Tensor y = bn.forward(x, true);
  const long spatial = 16;
  for (long ch = 0; ch < 3; ++ch) {
    double sum = 0.0, sq = 0.0;
    for (long n = 0; n < 4; ++n) {
      const float* plane = y.data() + (n * 3 + ch) * spatial;
      for (long s = 0; s < spatial; ++s) {
        sum += plane[s];
        sq += static_cast<double>(plane[s]) * plane[s];
      }
    }
    const double m = sum / (4 * spatial);
    EXPECT_NEAR(m, 0.0, 1e-4);
    EXPECT_NEAR(sq / (4 * spatial) - m * m, 1.0, 1e-3);
  }
}

TEST(BatchNormTest, RunningStatsConverge) {
  BatchNorm2d bn(1);
  // Feed the same distribution repeatedly: running stats approach it.
  for (int it = 0; it < 200; ++it) {
    Tensor x = rand_input({8, 1, 4, 4}, 100 + it, /*mean=*/5.0f, /*stddev=*/2.0f);
    bn.forward(x, true);
  }
  EXPECT_NEAR((*bn.buffers()[0])[0], 5.0f, 0.3f);
  EXPECT_NEAR((*bn.buffers()[1])[0], 4.0f, 0.8f);
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  for (int it = 0; it < 100; ++it) {
    bn.forward(rand_input({8, 1, 4, 4}, it, 5.0f, 2.0f), true);
  }
  // Evaluate on data with a DIFFERENT distribution; with running stats the
  // output won't be normalized, proving they were used.
  Tensor x = rand_input({8, 1, 4, 4}, 999, /*mean=*/0.0f, /*stddev=*/1.0f);
  Tensor y = bn.forward(x, false);
  EXPECT_LT(y.mean(), -1.0);  // (0 - 5)/2 = -2.5 ish

  bn.set_use_batch_stats_in_eval(true);
  Tensor y2 = bn.forward(x, false);
  EXPECT_NEAR(y2.mean(), 0.0, 1e-3);  // batch stats re-normalize
}

TEST(BatchNormTest, Gradcheck) {
  BatchNorm2d bn(2);
  Rng rng(6);
  for (Param* p : bn.params()) {
    for (long i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal() * 0.3f;
  }
  // NOTE: gradcheck re-runs forward in eval mode for the finite differences;
  // set batch-stats-in-eval so both passes use the same statistics.
  bn.set_use_batch_stats_in_eval(true);
  test::gradcheck_layer(bn, rand_input({3, 2, 3, 3}, 8), /*tol=*/3e-2);
}

TEST(BatchNormTest, BuffersExposedForSerialization) {
  BatchNorm2d bn(4);
  EXPECT_EQ(bn.buffers().size(), 2u);
  GroupNorm gn(2, 4);
  EXPECT_TRUE(gn.buffers().empty());
}

}  // namespace
}  // namespace ber
