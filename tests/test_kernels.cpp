// Tests for the src/kernels/ compute-backend subsystem: registry, default
// and scoped selection, scratch arena reuse, blocked-vs-reference GEMM
// parity on odd/edge shapes, threaded-GEMM determinism (square and skinny
// training shapes) and warm worker arenas, batch-coalesced convolution
// parity (forward and backward), the implicit-GEMM conv's bit identity with
// the explicit column lowering, and the inference-mode / clone
// backward-cache release.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "ber.h"
#include "test_util.h"

namespace {

using namespace ber;
using kernels::Backend;
using kernels::BlockedBackend;
using test::for_each_mode;
using test::kBackendModes;
using test::Mode;

// Normwise relative error: max |got - want| over the magnitude of the
// expected result (floored at 1). The standard GEMM-verification metric —
// per-element ratios are meaningless where random-walk cancellation leaves
// a near-zero expected value.
float max_rel_err(const Tensor& got, const Tensor& want) {
  EXPECT_EQ(got.numel(), want.numel());
  float worst = 0.0f;
  for (long i = 0; i < got.numel(); ++i) {
    worst = std::max(worst, std::abs(got[i] - want[i]));
  }
  return worst / std::max(1.0f, want.abs_max());
}

// ----------------------------------------------------------- registry ---

TEST(BackendRegistry, BuiltinsRegistered) {
  const auto names = kernels::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "blocked"), names.end());
  EXPECT_EQ(kernels::backend("reference").name(), "reference");
  EXPECT_EQ(kernels::backend("blocked").name(), "blocked");
  EXPECT_TRUE(kernels::backend("blocked").coalesced_conv());
  EXPECT_FALSE(kernels::backend("reference").coalesced_conv());
}

TEST(BackendRegistry, UnknownNameThrows) {
  EXPECT_THROW(kernels::backend("turbo"), std::invalid_argument);
  EXPECT_THROW(kernels::set_default_backend("turbo"), std::invalid_argument);
}

TEST(BackendRegistry, DefaultAndScopedOverride) {
  // The process default is reference until a caller names another.
  EXPECT_EQ(kernels::default_backend().name(), "reference");
  kernels::set_default_backend("blocked");
  EXPECT_EQ(kernels::current_backend().name(), "blocked");
  kernels::set_default_backend("reference");
  EXPECT_EQ(kernels::current_backend().name(), "reference");
  {
    kernels::ScopedBackend outer("blocked");
    EXPECT_EQ(kernels::current_backend().name(), "blocked");
    {
      kernels::ScopedBackend inner("reference");
      EXPECT_EQ(kernels::current_backend().name(), "reference");
    }
    EXPECT_EQ(kernels::current_backend().name(), "blocked");
  }
  EXPECT_EQ(kernels::current_backend().name(), "reference");
}

// -------------------------------------------------------------- arena ---

TEST(Arena, ScopeRewindsAndPointersStayValid) {
  kernels::Arena arena;
  float* outer = arena.alloc(100);
  outer[0] = 1.0f;
  {
    kernels::ArenaScope scope(arena);
    float* inner = arena.alloc(50);
    // Force growth while `outer` and `inner` are live.
    float* big = arena.alloc(100000);
    inner[0] = 2.0f;
    big[0] = 3.0f;
    EXPECT_EQ(outer[0], 1.0f);  // untouched by growth
    EXPECT_GE(arena.used(), std::size_t{100150});
  }
  EXPECT_EQ(arena.used(), std::size_t{100});  // rewound to the watermark
  EXPECT_EQ(outer[0], 1.0f);
}

TEST(Arena, CapacityConvergesAcrossDifferentlyShapedCalls) {
  kernels::Arena arena;
  const std::vector<std::size_t> shapes{1000, 5000, 3000, 1000, 5000};
  for (std::size_t n : shapes) {
    kernels::ArenaScope scope(arena);
    arena.alloc(n);
  }
  const std::size_t cap = arena.capacity();
  const std::size_t chunks = arena.chunk_count();
  for (int round = 0; round < 3; ++round) {
    for (std::size_t n : shapes) {
      kernels::ArenaScope scope(arena);
      float* p = arena.alloc(n);
      p[n - 1] = 1.0f;
    }
  }
  EXPECT_EQ(arena.capacity(), cap) << "arena kept growing on repeat calls";
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, ConvForwardReusesArenaAcrossShapes) {
  kernels::ScopedBackend guard("blocked");
  Rng rng(3);
  Conv2d conv(4, 6, 3, 1, 1);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal();
  }
  Tensor a = Tensor::randn({2, 4, 10, 10}, rng);
  Tensor b = Tensor::randn({5, 4, 7, 7}, rng);
  // Warm up both shapes, then the arena must stop growing.
  conv.forward(a, false);
  conv.forward(b, false);
  conv.forward(a, false);
  conv.forward(b, false);
  const std::size_t cap = kernels::tls_arena().capacity();
  for (int i = 0; i < 4; ++i) {
    conv.forward(a, false);
    conv.forward(b, false);
  }
  EXPECT_EQ(kernels::tls_arena().capacity(), cap);
}

// -------------------------------------------------------- GEMM parity ---

struct GemmShape {
  long m, n, k;
};

const std::vector<GemmShape>& parity_shapes() {
  // Deliberately not multiples of the register tile (mr x nr), plus
  // degenerate and tile-straddling edges.
  static const std::vector<GemmShape> shapes{
      {1, 1, 1},   {1, 7, 3},    {5, 1, 9},    {3, 5, 7},
      {17, 19, 23}, {31, 33, 1},  {64, 64, 64}, {65, 31, 129},
      {129, 63, 40}, {7, 300, 5}, {130, 70, 260}};
  return shapes;
}

TEST(BlockedGemm, ParityWithReferenceAcrossShapesAndBetas) {
  const Backend& ref = kernels::backend("reference");
  const BlockedBackend blocked;
  const ParallelWorkerScope one_thread;
  Rng rng(11);
  for (const auto& s : parity_shapes()) {
    for (float beta : {0.0f, 1.0f, 0.5f}) {
      Tensor a = Tensor::randn({s.m, s.k}, rng);
      Tensor b = Tensor::randn({s.k, s.n}, rng);
      Tensor c0 = Tensor::randn({s.m, s.n}, rng);
      Tensor c1 = c0;
      ref.gemm(s.m, s.n, s.k, 1.3f, a.data(), b.data(), beta, c0.data());
      blocked.gemm(s.m, s.n, s.k, 1.3f, a.data(), b.data(), beta, c1.data());
      EXPECT_LT(max_rel_err(c1, c0), 1e-4f)
          << "gemm " << s.m << "x" << s.n << "x" << s.k << " beta=" << beta;
    }
  }
}

TEST(BlockedGemm, ParityTransposedVariants) {
  const Backend& ref = kernels::backend("reference");
  const BlockedBackend blocked;
  const ParallelWorkerScope one_thread;
  Rng rng(12);
  for (const auto& s : parity_shapes()) {
    Tensor at = Tensor::randn({s.k, s.m}, rng);  // A stored [k,m]
    Tensor bt = Tensor::randn({s.n, s.k}, rng);  // B stored [n,k]
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor c0 = Tensor::randn({s.m, s.n}, rng);
    Tensor c1 = c0;
    ref.gemm_at(s.m, s.n, s.k, 1.0f, at.data(), b.data(), 1.0f, c0.data());
    blocked.gemm_at(s.m, s.n, s.k, 1.0f, at.data(), b.data(), 1.0f, c1.data());
    EXPECT_LT(max_rel_err(c1, c0), 1e-4f)
        << "gemm_at " << s.m << "x" << s.n << "x" << s.k;

    c0 = Tensor::randn({s.m, s.n}, rng);
    c1 = c0;
    ref.gemm_bt(s.m, s.n, s.k, 1.0f, a.data(), bt.data(), 0.0f, c0.data());
    blocked.gemm_bt(s.m, s.n, s.k, 1.0f, a.data(), bt.data(), 0.0f, c1.data());
    EXPECT_LT(max_rel_err(c1, c0), 1e-4f)
        << "gemm_bt " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(BlockedGemm, ThreadedShardingIsBitIdentical) {
  // The sharded path (row bands here: m has more tiles than n) must be
  // bit-identical to single-threaded blocked for any shard count: each C
  // element's k-summation order is fixed.
  Rng rng(13);
  const long m = 150, n = 130, k = 530;  // k spans three KC blocks
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c1({m, n}), c4({m, n}), c3({m, n});
  const BlockedBackend blocked;
  {
    const ParallelWorkerScope one_thread;
    blocked.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
  }
  {
    const test::ScopedThreadsEnv threads("4");
    blocked.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c4.data());
  }
  {
    const test::ScopedThreadsEnv threads("3");
    blocked.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c3.data());
  }
  for (long i = 0; i < c1.numel(); ++i) {
    ASSERT_EQ(c1[i], c4[i]) << "shard-count-dependent result at " << i;
    ASSERT_EQ(c1[i], c3[i]) << "shard-count-dependent result at " << i;
  }
}

TEST(BlockedGemm, SkinnyTrainingShapesBitIdenticalAcrossThreadCounts) {
  // Conv-training-like GEMMs: m = 16 output channels, and a long n (forward,
  // input gradient) or a long k (weight gradient) — column bands, k well
  // above KC, nothing a tile multiple. Every variant, 1..4 threads, with
  // beta = 1 so the bands also accumulate into a pre-filled C.
  struct Shape {
    long m, n, k;
  };
  const std::vector<Shape> shapes{{16, 2051, 611}, {16, 147, 2309}};
  Rng rng(15);
  for (const Shape& s : shapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);    // A, or A^T for at
    const Tensor at = Tensor::randn({s.k, s.m}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor bt = Tensor::randn({s.n, s.k}, rng);
    const Tensor c0 = Tensor::randn({s.m, s.n}, rng);
    const BlockedBackend bk;
    const auto run = [&](int threads, int variant) {
      const test::ScopedThreadsEnv scoped(std::to_string(threads).c_str());
      Tensor c = c0;
      if (variant == 0) {
        bk.gemm(s.m, s.n, s.k, 0.5f, a.data(), b.data(), 1.0f, c.data());
      } else if (variant == 1) {
        bk.gemm_at(s.m, s.n, s.k, 0.5f, at.data(), b.data(), 1.0f, c.data());
      } else {
        bk.gemm_bt(s.m, s.n, s.k, 0.5f, a.data(), bt.data(), 1.0f, c.data());
      }
      return c;
    };
    for (int variant = 0; variant < 3; ++variant) {
      const Tensor serial = run(1, variant);
      for (int threads = 2; threads <= 4; ++threads) {
        const Tensor sharded = run(threads, variant);
        for (long i = 0; i < serial.numel(); ++i) {
          ASSERT_EQ(serial[i], sharded[i])
              << "variant " << variant << " threads " << threads << " shape "
              << s.m << "x" << s.n << "x" << s.k << " at " << i;
        }
      }
    }
  }
}

TEST(BlockedGemm, WorkerArenasStayFlatAcrossRepeatedThreadedGemms) {
  // No heap allocation after warm-up on the threaded path: pool workers
  // persist, so their scratch arenas do too. Warm every participant by
  // running the GEMM on it (a nested call runs one band over all of C,
  // whose arena demand bounds a pool task's), then check that 20 threaded
  // calls leave every participant's arena capacity unchanged.
  const int participants = default_threads();
  if (participants < 2) GTEST_SKIP() << "single-threaded pool";
  const long m = 16, n = BlockedBackend::nr() * participants * 8, k = 773;
  Rng rng(16);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const BlockedBackend bk;  // default_threads() participants
  const auto gemm = [&] {
    Tensor c({m, n});
    bk.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  };
  const auto capacities = [&](bool warm) {
    std::mutex mu;
    std::map<std::thread::id, std::size_t> caps;
    EXPECT_TRUE(test::run_on_each_participant(participants, [&] {
      if (warm) gemm();
      const std::lock_guard<std::mutex> lock(mu);
      caps[std::this_thread::get_id()] = kernels::tls_arena().capacity();
    }));
    return caps;
  };
  const std::map<std::thread::id, std::size_t> warm = capacities(true);
  ASSERT_EQ(warm.size(), static_cast<std::size_t>(participants));
  for (int rep = 0; rep < 20; ++rep) {
    gemm();
    ASSERT_EQ(capacities(false), warm) << "an arena grew, or a pool thread "
                                          "was replaced, at rep "
                                       << rep;
  }
}

TEST(BlockedGemm, WorkerMarkerKeepsAutoShardingSerial) {
  // parallel_for participants are marked so the blocked backend's sharding
  // (intra_op_threads) stays serial inside evaluator/serving workers
  // instead of oversubscribing T^2.
  EXPECT_FALSE(in_parallel_worker());
  bool flags[2] = {false, false};
  parallel_for(2, 2, [&](std::int64_t i) { flags[i] = in_parallel_worker(); });
  EXPECT_TRUE(flags[0]);
  EXPECT_TRUE(flags[1]);
  EXPECT_FALSE(in_parallel_worker());
  {
    const ParallelWorkerScope mark;
    EXPECT_TRUE(in_parallel_worker());
  }
  EXPECT_FALSE(in_parallel_worker());
}

TEST(BlockedGemm, RepeatedCallsAreDeterministic) {
  Rng rng(14);
  const long m = 65, n = 33, k = 129;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c0({m, n}), c1({m, n});
  const BlockedBackend blocked;
  blocked.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c0.data());
  blocked.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
  for (long i = 0; i < c0.numel(); ++i) ASSERT_EQ(c0[i], c1[i]);
}

// -------------------------------------------------------- conv parity ---

struct ConvCase {
  long n, in_c, h, w, out_c, kernel, stride, pad;
  bool bias;
};

const std::vector<ConvCase>& conv_cases() {
  static const std::vector<ConvCase> cases{
      {1, 3, 12, 12, 8, 3, 1, 1, true},
      {8, 16, 12, 12, 32, 3, 1, 1, true},
      {4, 2, 9, 7, 5, 3, 2, 1, true},   // stride 2, non-square input
      {3, 4, 8, 8, 6, 2, 2, 0, false},  // even kernel, no pad, no bias
      {2, 1, 5, 5, 3, 5, 1, 2, true},   // kernel as big as the image
  };
  return cases;
}

Conv2d make_conv(const ConvCase& c, Rng& rng) {
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, c.bias);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = rng.normal() * 0.2f;
    }
  }
  return conv;
}

TEST(CoalescedConv, ForwardMatchesPerImage) {
  Rng rng(21);
  for (const auto& c : conv_cases()) {
    Conv2d conv = make_conv(c, rng);
    Tensor x = Tensor::randn({c.n, c.in_c, c.h, c.w}, rng);
    Tensor y_ref, y_blk;
    {
      kernels::ScopedBackend g("reference");
      y_ref = conv.forward(x, false);
    }
    {
      kernels::ScopedBackend g("blocked");
      y_blk = conv.forward(x, false);
    }
    ASSERT_EQ(y_blk.shape(), y_ref.shape());
    EXPECT_LT(max_rel_err(y_blk, y_ref), 1e-4f)
        << "conv N=" << c.n << " stride=" << c.stride << " pad=" << c.pad;
  }
}

TEST(CoalescedConv, BackwardMatchesPerImage) {
  Rng rng(22);
  for (const auto& c : conv_cases()) {
    Conv2d conv_ref = make_conv(c, rng);
    Conv2d conv_blk = conv_ref;  // identical weights
    Tensor x = Tensor::randn({c.n, c.in_c, c.h, c.w}, rng);

    Tensor gin_ref, gin_blk;
    {
      kernels::ScopedBackend g("reference");
      Tensor y = conv_ref.forward(x, true);
      Tensor go = Tensor::uniform(y.shape(), rng, -1.0f, 1.0f);
      gin_ref = conv_ref.backward(go);
      kernels::ScopedBackend g2("blocked");
      Tensor y2 = conv_blk.forward(x, true);
      gin_blk = conv_blk.backward(go);
      ASSERT_EQ(y2.shape(), y.shape());
    }
    EXPECT_LT(max_rel_err(gin_blk, gin_ref), 1e-4f) << "grad_in";
    const auto ps_ref = conv_ref.params();
    const auto ps_blk = conv_blk.params();
    for (std::size_t i = 0; i < ps_ref.size(); ++i) {
      EXPECT_LT(max_rel_err(ps_blk[i]->grad, ps_ref[i]->grad), 1e-4f)
          << "grad of " << ps_ref[i]->name;
    }
  }
}

// A 1x1 / stride-1 / no-pad conv lowers like any other: inference (column
// scratch) must be BIT-identical to the training-mode forward (which fills
// the backward cache), under both backends.
TEST(PointwiseConv, ElisionIsBitExactWithLoweredPath) {
  Rng rng(27);
  for (const long batch : {1L, 5L}) {
    Conv2d conv(6, 9, /*kernel=*/1, /*stride=*/1, /*pad=*/0);
    for (Param* p : conv.params()) {
      for (long i = 0; i < p->value.numel(); ++i) {
        p->value[i] = rng.normal() * 0.2f;
      }
    }
    Tensor x = Tensor::randn({batch, 6, 7, 7}, rng);
    for (const char* backend : {"reference", "blocked"}) {
      kernels::ScopedBackend g(backend);
      Tensor lowered = conv.forward(x, /*training=*/true);
      Tensor elided = conv.forward(x, /*training=*/false);
      ASSERT_EQ(elided.shape(), lowered.shape());
      for (long i = 0; i < elided.numel(); ++i) {
        ASSERT_EQ(elided[i], lowered[i])
            << backend << " batch=" << batch << " i=" << i;
      }
    }
  }
}

// A strided 1x1 conv agrees across backends.
TEST(PointwiseConv, NonPointwiseShapesKeepLoweredSemantics) {
  Rng rng(28);
  Conv2d conv(3, 4, /*kernel=*/1, /*stride=*/2, /*pad=*/0);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = rng.normal() * 0.2f;
    }
  }
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor y_ref, y_blk;
  {
    kernels::ScopedBackend g("reference");
    y_ref = conv.forward(x, false);
  }
  {
    kernels::ScopedBackend g("blocked");
    y_blk = conv.forward(x, false);
  }
  ASSERT_EQ(y_ref.shape(), (std::vector<long>{2, 4, 4, 4}));
  EXPECT_LT(max_rel_err(y_blk, y_ref), 1e-4f);
}

TEST(CoalescedConv, GradcheckUnderBlockedBackend) {
  kernels::ScopedBackend guard("blocked");
  Rng rng(23);
  Conv2d conv(2, 3, 3, 1, 1);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = rng.normal() * 0.3f;
    }
  }
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  test::gradcheck_layer(conv, x);
}

// ----------------------------------------------------- implicit GEMM conv ---

// The blocked GEMMs behind the default Backend::conv_gemm, which builds the
// batch column matrix explicitly: the named oracle for the blocked
// backend's implicit lowering, which packs the same panels straight from x.
class ExplicitColumnsBlocked final : public Backend {
 public:
  std::string name() const override { return "blocked_explicit_columns"; }
  void gemm(long m, long n, long k, float alpha, const float* a,
            const float* b, float beta, float* c) const override {
    blocked_.gemm(m, n, k, alpha, a, b, beta, c);
  }
  void gemm_at(long m, long n, long k, float alpha, const float* a,
               const float* b, float beta, float* c) const override {
    blocked_.gemm_at(m, n, k, alpha, a, b, beta, c);
  }
  void gemm_bt(long m, long n, long k, float alpha, const float* a,
               const float* b, float beta, float* c) const override {
    blocked_.gemm_bt(m, n, k, alpha, a, b, beta, c);
  }
  bool coalesced_conv() const override { return true; }

 private:
  BlockedBackend blocked_;
};

// Stride 1 and 2; pad 0, 1 and 2; N = 1; C*k*k above the 256-deep KC block
// (several K blocks); a batch wide enough to shard over column bands and to
// span several NC blocks. Every N*OH*OW is odd, so never a multiple of the
// register tile's nr().
const std::vector<ConvCase>& implicit_conv_cases() {
  static const std::vector<ConvCase> cases{
      {1, 3, 11, 11, 8, 3, 1, 1, true},    // N = 1
      {3, 4, 11, 11, 5, 3, 2, 0, true},    // stride 2, pad 0
      {3, 3, 10, 13, 6, 3, 2, 1, false},   // stride 2, pad 1, non-square
      {1, 2, 8, 8, 3, 3, 2, 2, true},      // stride 2, pad 2
      {3, 5, 9, 9, 7, 5, 1, 2, true},      // 5x5, pad 2
      {3, 64, 7, 7, 9, 3, 1, 1, true},     // C*k*k = 576: three KC blocks
      {5, 16, 31, 31, 16, 3, 1, 1, true},  // N*OH*OW = 4805: sharded
  };
  return cases;
}

TEST(ImplicitConv, ForwardAndBackwardBitIdenticalToExplicitColumns) {
  const ExplicitColumnsBlocked explicit_cols;
  for (const auto& c : implicit_conv_cases()) {
    const long ohw = conv_out_size(c.h, c.kernel, c.stride, c.pad) *
                     conv_out_size(c.w, c.kernel, c.stride, c.pad);
    ASSERT_NE(c.n * ohw % BlockedBackend::nr(), 0);
    Rng rng(29);
    const Conv2d base = make_conv(c, rng);
    const Tensor x = Tensor::randn({c.n, c.in_c, c.h, c.w}, rng);
    const Tensor go = Tensor::uniform(
        {c.n, c.out_c, conv_out_size(c.h, c.kernel, c.stride, c.pad),
         conv_out_size(c.w, c.kernel, c.stride, c.pad)},
        rng, -1.0f, 1.0f);
    struct Step {
      Tensor y, gin;
      std::vector<Tensor> grads;
    };
    const auto step = [&](const Backend& bk, const char* threads) {
      const test::ScopedThreadsEnv scoped(threads);
      const kernels::ScopedBackend guard(bk);
      Conv2d conv = base;
      Step r;
      r.y = conv.forward(x, /*training=*/true);
      r.gin = conv.backward(go);
      for (Param* p : conv.params()) r.grads.push_back(p->grad);
      // The inference forward takes the same lowering.
      const Tensor yi = conv.forward(x, /*training=*/false);
      for (long i = 0; i < yi.numel(); ++i) EXPECT_EQ(yi[i], r.y[i]);
      return r;
    };
    const auto same = [](const Tensor& a, const Tensor& b) {
      if (a.shape() != b.shape()) return false;
      for (long i = 0; i < a.numel(); ++i) {
        if (a[i] != b[i]) return false;
      }
      return true;
    };
    const Step oracle = step(explicit_cols, "1");
    for (const char* threads : {"1", "3", "4"}) {
      const Step got = step(kernels::backend("blocked"), threads);
      const std::string where = "N=" + std::to_string(c.n) + " C=" +
                                std::to_string(c.in_c) + " stride=" +
                                std::to_string(c.stride) + " pad=" +
                                std::to_string(c.pad) + " threads=" + threads;
      EXPECT_TRUE(same(got.y, oracle.y)) << "forward, " << where;
      EXPECT_TRUE(same(got.gin, oracle.gin)) << "grad_in, " << where;
      for (std::size_t i = 0; i < oracle.grads.size(); ++i) {
        EXPECT_TRUE(same(got.grads[i], oracle.grads[i]))
            << "param grad " << i << ", " << where;
      }
    }
  }
}

TEST(ImplicitConv, BlockedForwardBuildsNoColumnMatrix) {
  const ConvCase c{4, 8, 12, 12, 6, 3, 1, 1, true};
  Rng rng(30);
  Conv2d conv = make_conv(c, rng);
  const Tensor x = Tensor::randn({c.n, c.in_c, c.h, c.w}, rng);
  const Backend& blocked = kernels::backend("blocked");
  const kernels::ScopedBackend guard(blocked);
  const auto before = blocked.kstats().im2col_bytes->value();
  conv.forward(x, /*training=*/false);
  conv.forward(x, /*training=*/true);
  EXPECT_EQ(blocked.kstats().im2col_bytes->value(), before);
  // Backward re-lowers the cached input once, in scoped scratch.
  conv.backward(Tensor::uniform({c.n, c.out_c, c.h, c.w}, rng, -1.0f, 1.0f));
  EXPECT_EQ(blocked.kstats().im2col_bytes->value() - before,
            static_cast<unsigned long long>(c.in_c * 9 * c.n * c.h * c.w *
                                            sizeof(float)));
}

// ------------------------------------------- model-level integration ---

TEST(BackendIntegration, EvaluatorMatchesAcrossBackendsWithinTolerance) {
  Rng rng(32);
  ModelConfig mc;
  auto model = build_model(mc);
  he_init(*model, rng);
  SyntheticConfig dc = SyntheticConfig::cifar10();
  dc.n_test = 64;
  const Dataset data = make_synthetic(dc, /*train=*/false);
  BitErrorConfig cfg;
  cfg.p = 0.005;
  const RandomBitErrorModel fault(cfg, /*seed_base=*/7);

  for (const bool on_codes : {false, true}) {
    SCOPED_TRACE(on_codes ? "on_codes" : "weight_space");
    RobustResult r_ref, r_blk;
    {
      kernels::ScopedBackend g("reference");
      RobustnessEvaluator ev(*model, QuantScheme::rquant(8));
      ev.set_compute_on_codes(on_codes);
      r_ref = ev.run(fault, data, /*n_trials=*/3);
    }
    {
      // The evaluator must propagate the caller's scoped choice onto its
      // worker threads.
      kernels::ScopedBackend g("blocked");
      RobustnessEvaluator ev(*model, QuantScheme::rquant(8));
      ev.set_compute_on_codes(on_codes);
      r_blk = ev.run(fault, data, /*n_trials=*/3);
    }
    // Error rates are means over >= 64 images; kernel reassociation moves
    // logits by ~1e-6, which only flips predictions on razor-thin argmax
    // ties. Allow one image of slack per trial.
    EXPECT_NEAR(r_blk.mean_rerr, r_ref.mean_rerr, 1.0f / 64.0f + 1e-6f);
  }
}

// ------------------------------------------------ inference caches ---

TEST(InferenceCaches, ConvAndLinearReleaseBackwardCaches) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Rng rng(41);
    Conv2d conv(3, 8, 3, 1, 1);
    Linear linear(12, 5);
    Tensor x = Tensor::randn({6, 3, 8, 8}, rng);
    Tensor xl = Tensor::randn({6, 12}, rng);

    conv.forward(x, true);
    linear.forward(xl, true);
    EXPECT_GT(conv.cached_bytes(), 0);
    EXPECT_GT(linear.cached_bytes(), 0);

    // Cloning a just-trained layer copies no backward cache (evaluator
    // workers and serving replicas never carry stale activations), and
    // backward on the clone reports the missing forward.
    Conv2d conv_clone = conv;
    Linear linear_clone = linear;
    EXPECT_EQ(conv_clone.cached_bytes(), 0);
    EXPECT_EQ(linear_clone.cached_bytes(), 0);
    EXPECT_THROW(conv_clone.backward(Tensor({6, 8, 8, 8})), std::logic_error);
    EXPECT_THROW(linear_clone.backward(Tensor({6, 5})), std::logic_error);

    conv.forward(x, false);
    linear.forward(xl, false);
    EXPECT_EQ(conv.cached_bytes(), 0);
    EXPECT_EQ(linear.cached_bytes(), 0);
  });
}

}  // namespace
