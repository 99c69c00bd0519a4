// Tests for the int8 compute-on-codes datapath: the qgemm oracle's
// bit-exactness against dequantize-then-float, fused-epilogue equivalence,
// blocked int8 parity within the activation-quantization bound across
// schemes and odd shapes, the QuantWeightStore rebase/patch invariants,
// layer/model forwards over adopted codes, arena-backed inference
// activations, delta redeploy bit-identity + byte accounting, and the
// evaluator's compute-on-codes mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "ber.h"
#include "test_util.h"

namespace {

using namespace ber;
using kernels::Backend;
using kernels::BlockedBackend;
using kernels::QEpilogue;
using kernels::QWeightView;
using test::for_each_mode;
using test::kBackendModes;
using test::Mode;

std::vector<float> random_values(long n, Rng& rng, float scale = 0.2f) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.normal() * scale;
  return v;
}

std::vector<float> dequantized(const QuantizedTensor& qt) {
  std::vector<float> w(qt.size());
  dequantize(qt, w);
  return w;
}

// The unfused reference: float GEMM on the dequantized weights plus the
// layer's own bias / ReLU loops (channel-major layout, y[rows, n]).
std::vector<float> unfused_qgemm(const QuantizedTensor& qt, long rows,
                                 long cols, long n, const float* x,
                                 const float* bias, bool relu) {
  const std::vector<float> w = dequantized(qt);
  std::vector<float> y(static_cast<std::size_t>(rows * n), 0.0f);
  kernels::backend("reference")
      .gemm(rows, n, cols, 1.0f, w.data(), x, 0.0f, y.data());
  for (long i = 0; i < rows; ++i) {
    float* row = y.data() + i * n;
    if (bias != nullptr) {
      for (long p = 0; p < n; ++p) row[p] += bias[i];
    }
    if (relu) {
      for (long p = 0; p < n; ++p) {
        if (!(row[p] > 0.0f)) row[p] = 0.0f;
      }
    }
  }
  return y;
}

// Batch-major layout, y[m, rows] = X[m, cols] * W^T.
std::vector<float> unfused_qgemm_bt(const QuantizedTensor& qt, long rows,
                                    long cols, long m, const float* x,
                                    const float* bias, bool relu) {
  const std::vector<float> w = dequantized(qt);
  std::vector<float> y(static_cast<std::size_t>(m * rows), 0.0f);
  kernels::backend("reference")
      .gemm_bt(m, rows, cols, 1.0f, x, w.data(), 0.0f, y.data());
  for (long p = 0; p < m; ++p) {
    float* row = y.data() + p * rows;
    for (long j = 0; j < rows; ++j) {
      if (bias != nullptr) row[j] += bias[j];
      if (relu && !(row[j] > 0.0f)) row[j] = 0.0f;
    }
  }
  return y;
}

const std::vector<QuantScheme>& oracle_schemes() {
  static const std::vector<QuantScheme> schemes{
      QuantScheme::normal(8),     QuantScheme::rquant(8),
      QuantScheme::normal(3),     QuantScheme::rquant(4),
      QuantScheme::rquant_trunc(6), QuantScheme::symmetric_rounded(8),
      QuantScheme::rquant(12),  // no int8 mirror: oracle everywhere
  };
  return schemes;
}

// ------------------------------------------------------------ the oracle ---

TEST(QGemmOracle, BitExactWithDequantizeThenFloatReference) {
  const Backend& ref = kernels::backend("reference");
  Rng rng(101);
  const long rows = 5, cols = 7, n = 9, m = 4;
  for (const QuantScheme& scheme : oracle_schemes()) {
    SCOPED_TRACE(scheme.str());
    const std::vector<float> wf = random_values(rows * cols, rng);
    const QuantizedTensor qt = quantize(wf, scheme);
    const QuantWeightStore store(qt, rows, cols);
    const std::vector<float> bias = random_values(rows, rng, 0.5f);

    const std::vector<float> x = random_values(cols * n, rng, 1.0f);
    std::vector<float> y(static_cast<std::size_t>(rows * n));
    ref.qgemm(store.view(), n, x.data(), y.data(), {bias.data(), true});
    const std::vector<float> want =
        unfused_qgemm(qt, rows, cols, n, x.data(), bias.data(), true);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], want[i]) << "qgemm element " << i;
    }

    const std::vector<float> xb = random_values(m * cols, rng, 1.0f);
    std::vector<float> yb(static_cast<std::size_t>(m * rows));
    ref.qgemm_bt(store.view(), m, xb.data(), yb.data(), {bias.data(), true});
    const std::vector<float> wantb =
        unfused_qgemm_bt(qt, rows, cols, m, xb.data(), bias.data(), true);
    for (std::size_t i = 0; i < yb.size(); ++i) {
      ASSERT_EQ(yb[i], wantb[i]) << "qgemm_bt element " << i;
    }
  }
}

TEST(QGemmOracle, FusedEpilogueBitExactWithUnfusedPasses) {
  const Backend& ref = kernels::backend("reference");
  Rng rng(102);
  const long rows = 6, cols = 11, n = 5;
  const QuantScheme scheme = QuantScheme::rquant(8);
  const std::vector<float> wf = random_values(rows * cols, rng);
  const QuantizedTensor qt = quantize(wf, scheme);
  const QuantWeightStore store(qt, rows, cols);
  const std::vector<float> x = random_values(cols * n, rng, 1.0f);
  const std::vector<float> bias = random_values(rows, rng, 0.5f);

  // Fused bias+ReLU in one qgemm call...
  std::vector<float> fused(static_cast<std::size_t>(rows * n));
  ref.qgemm(store.view(), n, x.data(), fused.data(), {bias.data(), true});
  // ...vs a bare qgemm followed by separate bias / ReLU passes.
  std::vector<float> unfused(static_cast<std::size_t>(rows * n));
  ref.qgemm(store.view(), n, x.data(), unfused.data(), {nullptr, false});
  for (long i = 0; i < rows; ++i) {
    for (long p = 0; p < n; ++p) {
      float& v = unfused[static_cast<std::size_t>(i * n + p)];
      v += bias[i];
      if (!(v > 0.0f)) v = 0.0f;
    }
  }
  for (std::size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(fused[i], unfused[i]) << "element " << i;
  }
}

// ------------------------------------------------------ blocked int8 path ---

struct QShape {
  long rows, cols, n;
};

const std::vector<QShape>& qgemm_shapes() {
  // Straddle the kQMR x kQNR tile (4 x 64) and the k4 packing: primes,
  // singletons, exact-tile and one-past-tile sizes.
  static const std::vector<QShape> shapes{
      {1, 1, 1},   {3, 5, 7},     {4, 64, 64},  {5, 130, 33},
      {17, 19, 23}, {8, 4, 65},    {64, 100, 130}, {2, 257, 3},
  };
  return shapes;
}

// The blocked path quantizes activations to int8 dynamically (symmetric,
// sx = absmax / 127), which moves each x element by at most sx / 2. The
// induced output error is bounded by 0.5 * sx * sum_j |w[i, j]| per output
// channel; everything beyond that small bound must agree with the oracle.
void expect_within_activation_bound(const QWeightView& w, const float* x,
                                    long n_x, const std::vector<float>& got,
                                    const std::vector<float>& want,
                                    long rows, long n, bool batch_major,
                                    const QuantizedTensor& qt) {
  float absmax = 0.0f;
  for (long i = 0; i < n_x; ++i) absmax = std::max(absmax, std::abs(x[i]));
  const float sx = absmax / 127.0f;
  const std::vector<float> wf = dequantized(qt);
  std::vector<float> row_abs(static_cast<std::size_t>(rows), 0.0f);
  for (long i = 0; i < rows; ++i) {
    for (long j = 0; j < w.cols; ++j) {
      row_abs[static_cast<std::size_t>(i)] +=
          std::abs(wf[static_cast<std::size_t>(i * w.cols + j)]);
    }
  }
  for (long a = 0; a < (batch_major ? n : rows); ++a) {
    for (long b = 0; b < (batch_major ? rows : n); ++b) {
      const long i = batch_major ? b : a;  // output channel
      const std::size_t idx = static_cast<std::size_t>(
          batch_major ? a * rows + b : a * n + b);
      const float bound = 0.5f * sx * row_abs[static_cast<std::size_t>(i)] +
                          1e-3f * std::abs(want[idx]) + 1e-4f;
      ASSERT_NEAR(got[idx], want[idx], bound)
          << "channel " << i << " idx " << idx;
    }
  }
}

TEST(QGemmBlocked, ParityWithOracleAcrossShapesAndSchemes) {
  const Backend& ref = kernels::backend("reference");
  const BlockedBackend blocked;
  const ParallelWorkerScope one_thread;
  Rng rng(111);
  const std::vector<QuantScheme> schemes{
      QuantScheme::normal(8), QuantScheme::rquant(8), QuantScheme::normal(4),
      QuantScheme::rquant(2), QuantScheme::symmetric_rounded(8)};
  for (const QuantScheme& scheme : schemes) {
    for (const QShape& s : qgemm_shapes()) {
      SCOPED_TRACE(scheme.str() + " " + std::to_string(s.rows) + "x" +
                   std::to_string(s.cols) + "x" + std::to_string(s.n));
      const std::vector<float> wf = random_values(s.rows * s.cols, rng);
      const QuantizedTensor qt = quantize(wf, scheme);
      const QuantWeightStore store(qt, s.rows, s.cols);
      ASSERT_TRUE(store.has_int8());
      const std::vector<float> bias = random_values(s.rows, rng, 0.5f);
      const QEpilogue ep{bias.data(), true};

      const std::vector<float> x = random_values(s.cols * s.n, rng, 1.0f);
      std::vector<float> y_ref(static_cast<std::size_t>(s.rows * s.n));
      std::vector<float> y_blk(y_ref.size());
      ref.qgemm(store.view(), s.n, x.data(), y_ref.data(), ep);
      blocked.qgemm(store.view(), s.n, x.data(), y_blk.data(), ep);
      expect_within_activation_bound(store.view(), x.data(), s.cols * s.n,
                                     y_blk, y_ref, s.rows, s.n,
                                     /*batch_major=*/false, qt);

      const std::vector<float> xb = random_values(s.n * s.cols, rng, 1.0f);
      std::vector<float> yb_ref(static_cast<std::size_t>(s.n * s.rows));
      std::vector<float> yb_blk(yb_ref.size());
      ref.qgemm_bt(store.view(), s.n, xb.data(), yb_ref.data(), ep);
      blocked.qgemm_bt(store.view(), s.n, xb.data(), yb_blk.data(), ep);
      expect_within_activation_bound(store.view(), xb.data(), s.n * s.cols,
                                     yb_blk, yb_ref, s.rows, s.n,
                                     /*batch_major=*/true, qt);
    }
  }
}

TEST(QGemmBlocked, WideSchemesFallBackToOracleBitExactly) {
  const Backend& ref = kernels::backend("reference");
  const BlockedBackend blocked;
  const ParallelWorkerScope one_thread;
  Rng rng(112);
  for (const int bits : {10, 12, 16}) {
    const long rows = 7, cols = 13, n = 6;
    const std::vector<float> wf = random_values(rows * cols, rng);
    const QuantizedTensor qt = quantize(wf, QuantScheme::rquant(bits));
    const QuantWeightStore store(qt, rows, cols);
    EXPECT_FALSE(store.has_int8());
    const std::vector<float> bias = random_values(rows, rng, 0.5f);
    const std::vector<float> x = random_values(cols * n, rng, 1.0f);
    std::vector<float> y_ref(static_cast<std::size_t>(rows * n));
    std::vector<float> y_blk(y_ref.size());
    ref.qgemm(store.view(), n, x.data(), y_ref.data(), {bias.data(), true});
    blocked.qgemm(store.view(), n, x.data(), y_blk.data(),
                  {bias.data(), true});
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      ASSERT_EQ(y_blk[i], y_ref[i]) << "bits=" << bits << " element " << i;
    }
  }
}

// ----------------------------------------------------- QuantWeightStore ---

TEST(QuantWeightStore, PatchKeepsMirrorsConsistentIncludingOverflowCodes) {
  Rng rng(121);
  for (const int bits : {2, 4, 8}) {
    for (const QuantScheme scheme :
         {QuantScheme::rquant(bits), QuantScheme::normal(bits)}) {
      SCOPED_TRACE(scheme.str());
      const long rows = 4, cols = 6;
      const std::vector<float> wf = random_values(rows * cols, rng);
      QuantizedTensor qt = quantize(wf, scheme);
      QuantWeightStore store(qt, rows, cols);

      // Patch in the extreme code words a bit-error burst can produce —
      // all-ones is the case whose unsigned level (2^(m-1)) would overflow
      // int8 without the store's rebase.
      const std::uint16_t all_ones =
          static_cast<std::uint16_t>((1u << bits) - 1u);
      const std::vector<std::pair<std::size_t, std::uint16_t>> patches{
          {0, all_ones}, {7, 0}, {13, static_cast<std::uint16_t>(1u << (bits - 1))}};
      for (const auto& [index, code] : patches) {
        const float decoded = store.set_code(index, code);
        EXPECT_EQ(decoded, decode_code(code, qt.scheme, qt.range));
        qt.codes[index] = code;
      }

      // The patched store must be indistinguishable from one rebuilt from
      // scratch on the patched codes: same q levels, same row sums.
      const QuantWeightStore fresh(qt, rows, cols);
      const QWeightView a = store.view();
      const QWeightView b = fresh.view();
      ASSERT_TRUE(a.has_int8());
      EXPECT_EQ(a.slope, b.slope);
      EXPECT_EQ(a.shift, b.shift);
      EXPECT_EQ(std::memcmp(a.q, b.q, static_cast<std::size_t>(rows * cols)),
                0);
      for (long i = 0; i < rows; ++i) EXPECT_EQ(a.row_sums[i], b.row_sums[i]);
      for (long i = 0; i < rows * cols; ++i) {
        EXPECT_EQ(a.codes[i], b.codes[i]);
      }
    }
  }
}

TEST(QuantWeightStore, BlockedHandlesPatchedOverflowCodes) {
  // After patching unsigned all-ones codes in, the blocked path must still
  // track the oracle — i.e. the rebased levels really fit int8.
  const Backend& ref = kernels::backend("reference");
  const BlockedBackend blocked;
  const ParallelWorkerScope one_thread;
  Rng rng(122);
  const long rows = 4, cols = 64, n = 65;
  const std::vector<float> wf = random_values(rows * cols, rng);
  QuantizedTensor qt = quantize(wf, QuantScheme::rquant(8));
  QuantWeightStore store(qt, rows, cols);
  for (std::size_t i = 0; i < qt.size(); i += 9) store.set_code(i, 0xFF);
  for (std::size_t i = 3; i < qt.size(); i += 11) store.set_code(i, 0);
  for (std::size_t i = 0; i < qt.size(); i += 9) qt.codes[i] = 0xFF;
  for (std::size_t i = 3; i < qt.size(); i += 11) qt.codes[i] = 0;

  const std::vector<float> x = random_values(cols * n, rng, 1.0f);
  std::vector<float> y_ref(static_cast<std::size_t>(rows * n));
  std::vector<float> y_blk(y_ref.size());
  ref.qgemm(store.view(), n, x.data(), y_ref.data(), {});
  blocked.qgemm(store.view(), n, x.data(), y_blk.data(), {});
  expect_within_activation_bound(store.view(), x.data(), cols * n, y_blk,
                                 y_ref, rows, n, /*batch_major=*/false, qt);
}

// --------------------------------------------- layer / model code forward ---

TEST(CodeCompute, LinearForwardOnCodesBitExactOnReference) {
  kernels::ScopedBackend guard("reference");
  Rng rng(131);
  Linear linear(7, 5);
  for (Param* p : linear.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = rng.normal() * 0.3f;
    }
  }
  Param* weight = linear.params()[0];
  const QuantizedTensor qt = quantize(
      std::span<const float>(weight->value.data(),
                             static_cast<std::size_t>(weight->value.numel())),
      QuantScheme::rquant(8));
  Tensor x = Tensor::randn({6, 7}, rng);

  linear.adopt_weight_codes(qt);
  EXPECT_TRUE(linear.code_compute_active());
  Tensor y_codes = linear.forward(x, /*training=*/false);
  // adopt refreshed the float mirror, so the released float path computes
  // on identical weights — and must produce identical bits.
  linear.release_weight_codes();
  EXPECT_FALSE(linear.code_compute_active());
  Tensor y_float = linear.forward(x, /*training=*/false);
  ASSERT_EQ(y_codes.shape(), y_float.shape());
  for (long i = 0; i < y_codes.numel(); ++i) {
    ASSERT_EQ(y_codes[i], y_float[i]) << "element " << i;
  }
}

TEST(CodeCompute, TrainingForwardDropsAdoptedCodes) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Rng rng(132);
    Linear linear(4, 3);
    for (Param* p : linear.params()) {
      for (long i = 0; i < p->value.numel(); ++i) {
        p->value[i] = rng.normal() * 0.3f;
      }
    }
    Param* weight = linear.params()[0];
    const QuantizedTensor qt = quantize(
        std::span<const float>(weight->value.data(),
                               static_cast<std::size_t>(weight->value.numel())),
        QuantScheme::rquant(8));
    linear.adopt_weight_codes(qt);
    EXPECT_TRUE(linear.code_compute_active());
    Tensor x = Tensor::randn({2, 4}, rng);
    linear.forward(x, /*training=*/true);
    EXPECT_FALSE(linear.code_compute_active());
  });
}

// One deploy_snapshot-driven end-to-end parity check per architecture: the
// code-resident forward (with Sequential's ReLU fusion) must be bit-exact
// with the dequantized float forward on the reference backend.
void expect_code_deploy_parity(const ModelConfig& mc, const Tensor& x,
                               int seed) {
  kernels::ScopedBackend guard("reference");
  Rng rng(seed);
  auto model = build_model(mc);
  he_init(*model, rng);
  const NetQuantizer quantizer(QuantScheme::rquant(8));
  const NetSnapshot snap = quantizer.quantize(model->params());
  const std::vector<ParamSlot> slots = param_slots(*model);

  deploy_snapshot(snap, slots, /*on_codes=*/false);
  Tensor y_float = model->forward(x, false);
  deploy_snapshot(snap, slots, /*on_codes=*/true);
  Tensor y_codes = model->forward(x, false);
  ASSERT_EQ(y_codes.shape(), y_float.shape());
  for (long i = 0; i < y_codes.numel(); ++i) {
    ASSERT_EQ(y_codes[i], y_float[i]) << "logit " << i;
  }
  // Dropping codes returns to the float path and the same bits.
  deploy_snapshot(snap, slots, /*on_codes=*/false);
  Tensor y_back = model->forward(x, false);
  for (long i = 0; i < y_back.numel(); ++i) ASSERT_EQ(y_back[i], y_float[i]);
}

TEST(CodeCompute, MlpDeployParityOnReference) {
  Rng rng(133);
  ModelConfig mc;
  mc.arch = Arch::kMlp;
  mc.in_channels = 1;
  mc.width = 8;
  expect_code_deploy_parity(mc, Tensor::randn({3, 1, 12, 12}, rng), 141);
}

TEST(CodeCompute, ConvNetDeployParityOnReference) {
  Rng rng(134);
  ModelConfig mc;
  mc.width = 4;
  expect_code_deploy_parity(mc, Tensor::randn({2, 3, 12, 12}, rng), 142);
}

TEST(CodeCompute, BlockedForwardTracksReferenceWithinTolerance) {
  Rng rng(135);
  ModelConfig mc;
  mc.width = 4;
  auto model = build_model(mc);
  he_init(*model, rng);
  const NetQuantizer quantizer(QuantScheme::rquant(8));
  const NetSnapshot snap = quantizer.quantize(model->params());
  const std::vector<ParamSlot> slots = param_slots(*model);
  deploy_snapshot(snap, slots, /*on_codes=*/true);
  Tensor x = Tensor::randn({2, 3, 12, 12}, rng);

  Tensor y_ref, y_blk;
  {
    kernels::ScopedBackend g("reference");
    y_ref = model->forward(x, false);
  }
  {
    kernels::ScopedBackend g("blocked");
    y_blk = model->forward(x, false);
  }
  ASSERT_EQ(y_blk.shape(), y_ref.shape());
  float worst = 0.0f;
  for (long i = 0; i < y_ref.numel(); ++i) {
    worst = std::max(worst, std::abs(y_blk[i] - y_ref[i]));
  }
  // Per-layer activation quantization error compounds through the net;
  // logits still have to stay close on this scale of model.
  EXPECT_LT(worst / std::max(1.0f, y_ref.abs_max()), 0.05f);
}

// ------------------------------------------------- arena-backed forwards ---

TEST(ArenaActivations, InferenceForwardAllocatesFromArenaAndConverges) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Rng rng(151);
    ModelConfig mc;
    mc.width = 4;
    auto model = build_model(mc);
    he_init(*model, rng);
    Tensor x = Tensor::randn({2, 3, 12, 12}, rng);

    Tensor y0 = model->forward(x, false);
    const std::size_t bytes = model->last_forward_arena_bytes();
    EXPECT_GT(bytes, 0u);  // activations really lived in the arena
    model->forward(x, false);
    const std::size_t cap = kernels::tls_arena().capacity();
    const std::size_t chunks = kernels::tls_arena().chunk_count();
    for (int i = 0; i < 4; ++i) {
      Tensor y = model->forward(x, false);
      // Steady state: same per-forward arena footprint, no new allocations,
      // and identical results (the heap copy outlives the arena scope).
      EXPECT_EQ(model->last_forward_arena_bytes(), bytes);
      for (long j = 0; j < y.numel(); ++j) ASSERT_EQ(y[j], y0[j]);
    }
    EXPECT_EQ(kernels::tls_arena().capacity(), cap)
        << "inference forwards kept growing the arena";
    EXPECT_EQ(kernels::tls_arena().chunk_count(), chunks);
  });
}

TEST(ArenaActivations, TrainingForwardStaysOnHeap) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Rng rng(152);
    ModelConfig mc;
    mc.arch = Arch::kMlp;
    mc.in_channels = 1;
    mc.width = 8;
    auto model = build_model(mc);
    he_init(*model, rng);
    Tensor x = Tensor::randn({2, 1, 12, 12}, rng);
    model->forward(x, false);
    const std::size_t inference_bytes = model->last_forward_arena_bytes();
    EXPECT_GT(inference_bytes, 0u);
    model->forward(x, true);  // training: no arena accounting
    EXPECT_EQ(model->last_forward_arena_bytes(), inference_bytes)
        << "training forward must not touch the inference arena meter";
  });
}

// The ping-pong bound: layer i writes its output and scratch over the
// output of layer i-2, so the forward's peak is at most the two largest
// activations plus the largest single layer's scratch — not the sum of all
// activations, as when every intermediate stayed live.
TEST(ArenaActivations, InferencePeakIsTwoActivationsPlusLargestScratch) {
  Rng rng(153);
  ModelConfig mc;
  mc.width = 8;
  mc.image_size = 16;
  auto model = build_model(mc);
  he_init(*model, rng);
  const Tensor x = Tensor::randn({4, 3, 16, 16}, rng);
  for (const char* backend : {"reference", "blocked"}) {
    kernels::ScopedBackend g(backend);
    model->forward(x, false);
    const std::size_t peak = model->last_forward_arena_bytes();

    // Each layer alone, in a one-layer model: its arena peak is its output
    // plus its own scratch.
    std::vector<std::size_t> act;
    std::size_t scratch = 0;
    Tensor cur = x;
    for (std::size_t i = 0; i < model->size(); ++i) {
      Sequential one;
      one.add(model->layer(i).clone());
      Tensor out = one.forward(cur, false);
      const std::size_t out_bytes = out.numel() * sizeof(float);
      act.push_back(out_bytes);
      scratch = std::max(scratch, one.last_forward_arena_bytes() - out_bytes);
      cur = std::move(out);
    }
    std::sort(act.rbegin(), act.rend());
    ASSERT_GE(act.size(), 3u);
    EXPECT_LE(peak, act[0] + act[1] + scratch) << backend;
  }
}

// A Residual block bumps inside its layer's region while its skip input sits
// in the other one, so the ping-pong must not clobber it: the arena forward
// matches forward_observed, which runs every layer on the heap.
TEST(ArenaActivations, ResNetForwardMatchesObservedForward) {
  Rng rng(154);
  ModelConfig mc;
  mc.arch = Arch::kResNetSmall;
  mc.width = 4;
  auto model = build_model(mc);
  he_init(*model, rng);
  const Tensor x = Tensor::randn({3, 3, 12, 12}, rng);
  for (const char* backend : {"reference", "blocked"}) {
    kernels::ScopedBackend g(backend);
    const Tensor y = model->forward(x, false);
    const Tensor y_obs = model->forward_observed(
        x, [](std::size_t, const Layer&, const Tensor&) {});
    ASSERT_EQ(y.shape(), y_obs.shape());
    for (long i = 0; i < y.numel(); ++i) {
      ASSERT_EQ(y[i], y_obs[i]) << backend << " at " << i;
    }
  }
}

// ------------------------------------------------------- delta redeploys ---

struct DeployRig {
  std::unique_ptr<Sequential> model;
  NetQuantizer quantizer{QuantScheme::rquant(8)};
  std::shared_ptr<NetSnapshot> base;
  ChipFaultList faults;
  std::vector<double> voltages{1.0, 0.9, 0.8, 0.7};
  std::vector<double> rates{0.0005, 0.005, 0.02, 0.05};

  explicit DeployRig(int seed)
      : model(make_model(seed)),
        base(std::make_shared<NetSnapshot>(
            quantizer.quantize(model->params()))),
        faults(*base, BitErrorConfig{0.05}, /*chip_seed=*/7, /*p_max=*/0.05) {}

  Replica replica(int id, std::size_t at, bool on_codes) {
    return Replica(id, *model, quantizer, base, faults, voltages, rates, at,
                   on_codes);
  }

 private:
  static std::unique_ptr<Sequential> make_model(int seed) {
    Rng rng(seed);
    ModelConfig mc;
    mc.arch = Arch::kMlp;
    mc.in_channels = 1;
    mc.width = 8;
    auto m = build_model(mc);
    he_init(*m, rng);
    return m;
  }
};

void expect_params_equal(Sequential& a, Sequential& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (long j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j])
          << pa[i]->name << "[" << j << "]";
    }
  }
}

TEST(DeltaRedeploy, ApplyDeltaMatchesFullApplyBothDirections) {
  DeployRig rig(161);
  const std::vector<double>& rates = rig.rates;
  for (std::size_t from = 0; from < rates.size(); ++from) {
    for (std::size_t to = 0; to < rates.size(); ++to) {
      NetSnapshot cur = *rig.base;
      rig.faults.apply(cur, rates[from]);
      std::vector<ChipFaultList::ChangedCode> changed;
      const std::size_t n_delta = rig.faults.apply_delta(
          cur, *rig.base, rates[from], rates[to], &changed);

      NetSnapshot want = *rig.base;
      const std::size_t n_full = rig.faults.apply(want, rates[to]);
      EXPECT_EQ(n_delta, n_full) << from << "->" << to;
      for (std::size_t t = 0; t < want.tensors.size(); ++t) {
        ASSERT_EQ(cur.tensors[t].codes, want.tensors[t].codes)
            << "tensor " << t << " " << from << "->" << to;
      }
      if (from == to) EXPECT_TRUE(changed.empty());
      if (from != to && n_full > 0) {
        // Moving between distinct rates with live faults must rewrite
        // strictly fewer words than the whole network holds.
        EXPECT_LT(changed.size(), rig.base->total_weights());
      }
    }
  }
}

TEST(DeltaRedeploy, BitIdenticalWithFullDeployAtEveryGridPoint) {
  for (const bool on_codes : {false, true}) {
    SCOPED_TRACE(on_codes ? "on_codes" : "weight_space");
    DeployRig rig(162);
    Replica delta = rig.replica(0, 0, on_codes);
    Replica full = rig.replica(1, 0, on_codes);
    const unsigned long long full_bytes_once = full.deploy_stats().bytes_written;
    ASSERT_GT(full_bytes_once, 0u);

    // A walk that moves down, up, jumps, and repeats a point.
    const std::size_t walk[] = {2, 1, 3, 0, 2, 2};
    unsigned long long prev_bytes = delta.deploy_stats().bytes_written;
    for (const std::size_t i : walk) {
      const bool repeat = i == delta.grid_index();
      delta.deploy(i);
      full.deploy_full(i);
      EXPECT_EQ(delta.faults_applied(), full.faults_applied()) << "at " << i;
      expect_params_equal(delta.model(), full.model());

      const unsigned long long step =
          delta.deploy_stats().bytes_written - prev_bytes;
      prev_bytes = delta.deploy_stats().bytes_written;
      if (repeat) {
        EXPECT_EQ(step, 0u) << "no-op redeploy wrote bytes";
      } else {
        // The tentpole invariant: a delta redeploy writes strictly fewer
        // bytes than a full deploy of the same grid point.
        EXPECT_LT(step, full_bytes_once) << "at " << i;
      }
    }

    const Replica::DeployStats& ds = delta.deploy_stats();
    EXPECT_EQ(ds.deploys, 1 + 6);       // constructor + the walk
    EXPECT_EQ(ds.delta_deploys, 5);     // all moves except the repeat
    EXPECT_EQ(ds.noop_deploys, 1);      // the repeated grid point
    EXPECT_LT(ds.bytes_written, full.deploy_stats().bytes_written);

    // step_up from the bottom heals exactly back to a fresh deploy.
    delta.deploy(3);
    while (delta.step_up()) {
    }
    Replica fresh = rig.replica(2, 0, on_codes);
    expect_params_equal(delta.model(), fresh.model());
  }
}

TEST(DeltaRedeploy, CodeModeForwardMatchesWeightSpaceOnReference) {
  kernels::ScopedBackend guard("reference");
  DeployRig rig(163);
  Replica codes = rig.replica(0, 2, /*on_codes=*/true);
  Replica floats = rig.replica(1, 2, /*on_codes=*/false);
  EXPECT_TRUE(codes.compute_on_codes());
  Rng rng(164);
  Tensor x = Tensor::randn({4, 1, 12, 12}, rng);
  Tensor ya = codes.forward(x);
  Tensor yb = floats.forward(x);
  ASSERT_EQ(ya.shape(), yb.shape());
  for (long i = 0; i < ya.numel(); ++i) ASSERT_EQ(ya[i], yb[i]);

  // ...and still after a delta redeploy patched codes + mirrors in place.
  codes.deploy(0);
  floats.deploy(0);
  ya = codes.forward(x);
  yb = floats.forward(x);
  for (long i = 0; i < ya.numel(); ++i) ASSERT_EQ(ya[i], yb[i]);
}

TEST(DeltaRedeploy, PoolStatsAggregateDeployCounters) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    DeployRig rig(165);
    std::vector<Replica> fleet;
    fleet.push_back(rig.replica(0, 1, false));
    fleet.push_back(rig.replica(1, 1, false));
    fleet[0].deploy(2);  // one delta before the pool takes ownership
    const unsigned long long expect_bytes =
        fleet[0].deploy_stats().bytes_written +
        fleet[1].deploy_stats().bytes_written;
    ReplicaPool pool(std::move(fleet), {/*max_batch=*/8, /*max_wait_us=*/100});
    pool.drain();
    const ServingStats s = pool.stats();
    EXPECT_EQ(s.deploys, 3);        // two constructor deploys + one delta
    EXPECT_EQ(s.delta_deploys, 1);
    EXPECT_EQ(s.noop_deploys, 0);
    EXPECT_EQ(s.deploy_bytes, expect_bytes);
  });
}

// ------------------------------------------------ evaluator on the codes ---

TEST(EvaluatorOnCodes, ReferenceRunIsBitExactWithWeightSpace) {
  Rng rng(171);
  ModelConfig mc;
  mc.arch = Arch::kMlp;
  mc.in_channels = 1;
  mc.width = 8;
  auto model = build_model(mc);
  he_init(*model, rng);
  auto dc = SyntheticConfig::mnist();
  dc.n_test = 64;
  const Dataset data = make_synthetic(dc, /*train=*/false);
  BitErrorConfig cfg;
  cfg.p = 0.01;
  const RandomBitErrorModel fault(cfg, /*seed_base=*/7);

  kernels::ScopedBackend g("reference");
  RobustnessEvaluator ev(*model, QuantScheme::rquant(8));
  EXPECT_FALSE(ev.compute_on_codes());
  ev.set_compute_on_codes(false);
  const RobustResult weight_space = ev.run(fault, data, /*n_trials=*/3);
  ev.set_compute_on_codes(true);
  const RobustResult on_codes = ev.run(fault, data, /*n_trials=*/3);
  // The reference qgemm path is bit-exact with dequantize-then-float, so
  // the aggregate error statistics must match exactly.
  EXPECT_EQ(on_codes.mean_rerr, weight_space.mean_rerr);
  EXPECT_EQ(on_codes.std_rerr, weight_space.std_rerr);
  EXPECT_EQ(on_codes.mean_confidence, weight_space.mean_confidence);
}

TEST(EvaluatorOnCodes, BlockedInt8TracksReferenceWithinSlack) {
  Rng rng(172);
  ModelConfig mc;
  mc.arch = Arch::kMlp;
  mc.in_channels = 1;
  mc.width = 8;
  auto model = build_model(mc);
  he_init(*model, rng);
  auto dc = SyntheticConfig::mnist();
  dc.n_test = 64;
  const Dataset data = make_synthetic(dc, /*train=*/false);
  BitErrorConfig cfg;
  cfg.p = 0.005;
  const RandomBitErrorModel fault(cfg, /*seed_base=*/9);

  RobustResult r_ref, r_int8;
  {
    kernels::ScopedBackend g("reference");
    RobustnessEvaluator ev(*model, QuantScheme::rquant(8));
    ev.set_compute_on_codes(false);
    r_ref = ev.run(fault, data, /*n_trials=*/3);
  }
  {
    kernels::ScopedBackend g("blocked");
    RobustnessEvaluator ev(*model, QuantScheme::rquant(8));
    ev.set_compute_on_codes(true);
    r_int8 = ev.run(fault, data, /*n_trials=*/3);
  }
  // int8 activation quantization moves logits by ~1e-2 relative; on 64
  // images allow a few borderline argmax flips per trial.
  EXPECT_NEAR(r_int8.mean_rerr, r_ref.mean_rerr, 4.0f / 64.0f + 1e-6f);
}

}  // namespace
