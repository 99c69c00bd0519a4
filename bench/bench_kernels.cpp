// Compute-backend microbenchmark: reference vs blocked kernels.
//
// Emits a single JSON object (core/json) on stdout so future PRs can track
// the compute hot path. Sections:
//   * gemm        — GFLOP/s grid over square sizes (plus a conv-shaped
//                   rectangular case) for each backend, single-threaded, and
//                   the blocked backend with intra-GEMM sharding. The
//                   acceptance number is speedup_128 (blocked vs reference
//                   at 128^3, one core): >= 3x.
//   * gemm_variants — gemm_at / gemm_bt parity of the win at 128^3.
//   * conv        — forward latency at batch 8 on one core: reference
//                   per-image lowering vs blocked per-image (same GEMM, old
//                   lowering) vs blocked batch-coalesced (one im2col + one
//                   GEMM across the batch). coalesced_speedup_vs_reference
//                   is the acceptance number (>= 1.5x); the per-image
//                   blocked column isolates how much of it is coalescing
//                   rather than the faster GEMM.
//   * end_to_end  — clean-evaluation throughput (images/s) of the paper's
//                   default model under each backend.
//   * int8        — compute-on-codes datapath at 8 bits: quantized-vs-float
//                   Linear GEMM, end-to-end eval throughput on the
//                   paper-scale width-32 model (acceptance:
//                   int8_end_to_end_speedup >= 1.5x), and delta-redeploy
//                   weight-memory traffic vs a full deploy.
//   * train_step  — one SimpleNet-GN training forward+backward at the
//                   randbet_train shape (width 16, 32x32, batch 32, blocked)
//                   at default threads and on one thread, and their ratio.
//   * trace_disabled_overhead — cost of a BER_TRACE_SCOPE with tracing off,
//                   as a ratio to a bare loop (smoke bound: < 3x). A
//                   wall-clock ratio, so it lives here rather than in a test.
//
// Timings are wall-clock medians-of-one (~0.3s windows); the JSON also
// carries the tile sizes and thread count so regressions are attributable.
#include <chrono>
#include <cstdio>
#include <vector>

#include "ber.h"
#include "bench_util.h"

namespace {

using namespace ber;
using Clock = std::chrono::steady_clock;
using bench::seconds_per_call;

// seconds_per_call with every parallel_for inside `fn` run inline.
template <typename Fn>
double one_core_seconds_per_call(const Fn& fn) {
  return seconds_per_call([&] {
    const ParallelWorkerScope one_core;
    fn();
  });
}

double gflops(long m, long n, long k, double sec) {
  return 2.0 * static_cast<double>(m) * n * k / sec / 1e9;
}

struct GemmCase {
  long m, n, k;
};

}  // namespace

int main() {
  using kernels::BlockedBackend;
  const kernels::Backend& ref = kernels::backend("reference");
  // The single-core story: every timing of blocked1 (and of the reference
  // it is compared with) runs inside a ParallelWorkerScope.
  const BlockedBackend blocked1;
  const kernels::Backend& blocked_mt = kernels::backend("blocked");
  const int threads = default_threads();
  Rng rng(1);

  Json report = Json::object();
  report.set("bench", "kernels");
  report.set("threads", threads);
  report.set("mr", BlockedBackend::mr());
  report.set("nr", BlockedBackend::nr());

  // ------------------------------------------------------------- gemm ---
  const std::vector<GemmCase> cases{
      {32, 32, 32}, {64, 64, 64}, {128, 128, 128}, {256, 256, 256},
      {32, 1152, 144}};  // conv-shaped: [out_c, N*OH*OW, in*k*k] at batch 8
  double speedup_128 = 0.0;
  Json gemm_rows = Json::array();
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const auto [m, n, k] = cases[ci];
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c({m, n});
    const double ref_sec = one_core_seconds_per_call(
        [&] { ref.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data()); });
    const double blk_sec = one_core_seconds_per_call([&] {
      blocked1.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    const double mt_sec = seconds_per_call([&] {
      blocked_mt.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    const double speedup = ref_sec / blk_sec;
    if (m == 128 && n == 128 && k == 128) speedup_128 = speedup;
    Json row = Json::object();
    row.set("m", m).set("n", n).set("k", k);
    row.set("reference_gflops", gflops(m, n, k, ref_sec));
    row.set("blocked_gflops", gflops(m, n, k, blk_sec));
    row.set("blocked_mt_gflops", gflops(m, n, k, mt_sec));
    row.set("blocked_speedup", speedup);
    gemm_rows.push_back(std::move(row));
  }
  report.set("gemm", std::move(gemm_rows));
  report.set("gemm_blocked_speedup_128", speedup_128);

  // --------------------------------------------------- gemm variants ---
  {
    const long m = 128, n = 128, k = 128;
    Tensor at = Tensor::randn({k, m}, rng);
    Tensor bt = Tensor::randn({n, k}, rng);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c({m, n});
    const double ref_at = one_core_seconds_per_call([&] {
      ref.gemm_at(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
    });
    const double blk_at = one_core_seconds_per_call([&] {
      blocked1.gemm_at(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
    });
    const double ref_bt = one_core_seconds_per_call([&] {
      ref.gemm_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c.data());
    });
    const double blk_bt = one_core_seconds_per_call([&] {
      blocked1.gemm_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c.data());
    });
    Json variants = Json::array();
    Json at_row = Json::object();
    at_row.set("variant", "at");
    at_row.set("reference_gflops", gflops(m, n, k, ref_at));
    at_row.set("blocked_gflops", gflops(m, n, k, blk_at));
    at_row.set("blocked_speedup", ref_at / blk_at);
    variants.push_back(std::move(at_row));
    Json bt_row = Json::object();
    bt_row.set("variant", "bt");
    bt_row.set("reference_gflops", gflops(m, n, k, ref_bt));
    bt_row.set("blocked_gflops", gflops(m, n, k, blk_bt));
    bt_row.set("blocked_speedup", ref_bt / blk_bt);
    variants.push_back(std::move(bt_row));
    report.set("gemm_variants", std::move(variants));
  }

  // ------------------------------------------------------------- conv ---
  {
    const long batch = 8;
    Conv2d conv(16, 32, 3, 1, 1);
    for (Param* p : conv.params()) {
      for (long i = 0; i < p->value.numel(); ++i) {
        p->value[i] = rng.normal() * 0.1f;
      }
    }
    Tensor x = Tensor::randn({batch, 16, 12, 12}, rng);
    // Blocked GEMM but the old per-image lowering: isolates the coalescing
    // gain from the GEMM gain.
    class BlockedPerImage final : public kernels::Backend {
     public:
      std::string name() const override { return "blocked_per_image"; }
      void gemm(long m, long n, long k, float alpha, const float* a,
                const float* b, float beta, float* c) const override {
        inner_.gemm(m, n, k, alpha, a, b, beta, c);
      }
      void gemm_at(long m, long n, long k, float alpha, const float* a,
                   const float* b, float beta, float* c) const override {
        inner_.gemm_at(m, n, k, alpha, a, b, beta, c);
      }
      void gemm_bt(long m, long n, long k, float alpha, const float* a,
                   const float* b, float beta, float* c) const override {
        inner_.gemm_bt(m, n, k, alpha, a, b, beta, c);
      }
      bool coalesced_conv() const override { return false; }

     private:
      BlockedBackend inner_;
    } blocked_per_image;

    const double ref_sec = one_core_seconds_per_call([&] {
      kernels::ScopedBackend g(ref);
      Tensor y = conv.forward(x, false);
    });
    const double blk_img_sec = one_core_seconds_per_call([&] {
      kernels::ScopedBackend g(blocked_per_image);
      Tensor y = conv.forward(x, false);
    });
    const double blk_coal_sec = one_core_seconds_per_call([&] {
      kernels::ScopedBackend g(blocked1);
      Tensor y = conv.forward(x, false);
    });
    Json conv_j = Json::object();
    conv_j.set("batch", batch);
    conv_j.set("reference_per_image_us", ref_sec * 1e6);
    conv_j.set("blocked_per_image_us", blk_img_sec * 1e6);
    conv_j.set("blocked_coalesced_us", blk_coal_sec * 1e6);
    conv_j.set("coalesced_speedup_vs_reference", ref_sec / blk_coal_sec);
    conv_j.set("coalesced_speedup_vs_blocked_per_image",
               blk_img_sec / blk_coal_sec);
    report.set("conv", std::move(conv_j));
  }

  // ------------------------------------------------------- end to end ---
  {
    Rng mrng(7);
    ModelConfig mc;
    auto model = build_model(mc);
    he_init(*model, mrng);
    SyntheticConfig dc = SyntheticConfig::cifar10();
    dc.n_test = 256;
    Dataset data = make_synthetic(dc, /*train=*/false);
    const long images = data.size();
    const double ref_sec = one_core_seconds_per_call([&] {
      kernels::ScopedBackend g(ref);
      evaluate(*model, data, /*batch=*/64);
    });
    const double blk_sec = one_core_seconds_per_call([&] {
      kernels::ScopedBackend g(blocked1);
      evaluate(*model, data, /*batch=*/64);
    });
    Json e2e = Json::object();
    e2e.set("images", images);
    e2e.set("reference_images_per_sec", images / ref_sec);
    e2e.set("blocked_images_per_sec", images / blk_sec);
    e2e.set("blocked_speedup", ref_sec / blk_sec);
    report.set("end_to_end", std::move(e2e));
  }
  // ------------------------------------------------------------- int8 ---
  // Compute-on-codes datapath: int8 GEMM over 8-bit quantized code words
  // with fused bias+ReLU epilogues (kernels/qgemm_blocked.cpp), against the
  // float blocked path on the dequantized weights of the same model. The
  // acceptance number is int8.end_to_end.speedup (>= 1.5x at 8 bits); the
  // delta_redeploy block records the weight-memory traffic of an
  // incremental operating-point move vs a from-scratch deploy.
  {
    const QuantScheme scheme = QuantScheme::rquant(8);
    Json int8_j = Json::object();
    int8_j.set("scheme", "rquant8");

    // Quantized linear forward (qgemm_bt + fused epilogue) vs float.
    {
      const long batch = 256, in = 256, out = 256;
      Sequential seq;
      seq.emplace<Linear>(in, out);
      Rng lrng(13);
      he_init(seq, lrng);
      NetQuantizer lq(scheme);
      const NetSnapshot lsnap = lq.quantize(seq.params());
      Tensor x = Tensor::randn({batch, in}, lrng);
      deploy_snapshot(lsnap, param_slots(seq), /*on_codes=*/false);
      const double float_sec = one_core_seconds_per_call([&] {
        kernels::ScopedBackend g(blocked1);
        Tensor y = seq.forward(x, false);
      });
      deploy_snapshot(lsnap, param_slots(seq), /*on_codes=*/true);
      const double quant_sec = one_core_seconds_per_call([&] {
        kernels::ScopedBackend g(blocked1);
        Tensor y = seq.forward(x, false);
      });
      Json lin = Json::object();
      lin.set("m", out).set("n", batch).set("k", in);
      lin.set("float_gflops", gflops(out, batch, in, float_sec));
      lin.set("quant_gops", gflops(out, batch, in, quant_sec));
      lin.set("speedup", float_sec / quant_sec);
      int8_j.set("linear", std::move(lin));
    }

    // End-to-end clean evaluation at the paper's scale (CIFAR-sized 32x32
    // inputs, width-32 SimpleNet): float blocked on dequantized 8-bit
    // weights vs compute-on-codes int8. The repo-default 12x12/width-12
    // config is a scaled-down test model whose conv GEMMs are a minority of
    // the runtime (norms/pools/lowering dominate), so it cannot show a
    // compute-path win end to end; the accelerator regime the paper targets
    // is GEMM-bound.
    Rng mrng(11);
    ModelConfig mc;
    mc.width = 32;
    mc.image_size = 32;
    auto model = build_model(mc);
    he_init(*model, mrng);
    SyntheticConfig dc = SyntheticConfig::cifar10();
    dc.image_size = 32;
    dc.n_test = 128;
    Dataset data = make_synthetic(dc, /*train=*/false);
    const long images = data.size();
    NetQuantizer quantizer(scheme);
    const NetSnapshot snap = quantizer.quantize(model->params());
    {
      deploy_snapshot(snap, param_slots(*model), /*on_codes=*/false);
      const double float_sec = one_core_seconds_per_call([&] {
        kernels::ScopedBackend g(blocked1);
        evaluate(*model, data, /*batch=*/64);
      });
      deploy_snapshot(snap, param_slots(*model), /*on_codes=*/true);
      const double quant_sec = one_core_seconds_per_call([&] {
        kernels::ScopedBackend g(blocked1);
        evaluate(*model, data, /*batch=*/64);
      });
      deploy_snapshot(snap, param_slots(*model), /*on_codes=*/false);
      Json e2e = Json::object();
      e2e.set("images", images);
      e2e.set("image_size", mc.image_size);
      e2e.set("width", mc.width);
      e2e.set("float_images_per_sec", images / float_sec);
      e2e.set("int8_images_per_sec", images / quant_sec);
      e2e.set("speedup", float_sec / quant_sec);
      report.set("int8_end_to_end_speedup", float_sec / quant_sec);
      int8_j.set("end_to_end", std::move(e2e));
    }

    // Weight-memory traffic of operating-point moves: a delta redeploy
    // patches only the code words whose fault set changed, a full deploy
    // rewrites every word.
    {
      auto base = std::make_shared<const NetSnapshot>(snap);
      ChipFaultList faults(*base, BitErrorConfig{0.05}, /*chip_seed=*/7,
                           /*p_max=*/0.05);
      const std::vector<double> voltages{1.0, 0.9, 0.8, 0.7};
      const std::vector<double> rates{0.0005, 0.005, 0.02, 0.05};
      Replica replica(0, *model, quantizer, base, std::move(faults),
                      voltages, rates, /*deploy_index=*/3,
                      /*on_codes=*/true);
      const unsigned long long full_bytes =
          replica.deploy_stats().bytes_written;
      replica.deploy(2);  // one step up the grid: incremental patch
      const unsigned long long delta_bytes =
          replica.deploy_stats().bytes_written - full_bytes;
      Json dj = Json::object();
      dj.set("full_deploy_bytes", static_cast<long>(full_bytes));
      dj.set("delta_deploy_bytes", static_cast<long>(delta_bytes));
      dj.set("delta_fraction",
             static_cast<double>(delta_bytes) /
                 static_cast<double>(full_bytes));
      int8_j.set("delta_redeploy", std::move(dj));
    }
    report.set("int8", std::move(int8_j));
  }

  // ------------------------------------------------------- train step ---
  // One SimpleNet-GN training forward+backward at the randbet_train shape
  // (width 16, 32x32, batch 32, blocked backend). At default threads the
  // GEMMs shard and the conv lowering, GroupNorm, ReLU and MaxPool2d loops
  // split per image / chunk; under a ParallelWorkerScope every loop and
  // GEMM runs inline on one thread. Both compute the same bits.
  {
    constexpr long kBatch = 32;
    ModelConfig mc;
    mc.width = 16;
    mc.image_size = 32;
    auto model = build_model(mc);
    Rng mrng(11);
    he_init(*model, mrng);
    const Tensor x = Tensor::randn({kBatch, 3, 32, 32}, rng);
    std::vector<int> labels(kBatch);
    for (long i = 0; i < kBatch; ++i) labels[i] = static_cast<int>(i % 10);
    const kernels::ScopedBackend g(blocked_mt);
    const auto step = [&] {
      model->zero_grad();
      const Tensor logits = model->forward(x, /*training=*/true);
      model->backward(softmax_cross_entropy(logits, labels).grad_logits);
    };
    const double mt_sec = seconds_per_call(step);
    const double one_sec = one_core_seconds_per_call(step);
    Json ts = Json::object();
    ts.set("batch", kBatch);
    ts.set("width", mc.width);
    ts.set("image_size", mc.image_size);
    ts.set("default_threads_ms", mt_sec * 1e3);
    ts.set("one_thread_ms", one_sec * 1e3);
    ts.set("speedup", one_sec / mt_sec);
    report.set("train_step", std::move(ts));
  }

  // ---------------------------------------------------- trace overhead ---
  // Disabled tracing must cost ~a relaxed load per scope: a loop with a
  // BER_TRACE_SCOPE per iteration vs the same loop bare (smoke bound: the
  // ratio stays under 3 on an idle machine).
  {
    constexpr int kIters = 2000000;
    volatile long sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) sink = sink + i;
    const auto t1 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      BER_TRACE_SCOPE("bench", "off");
      sink = sink + i;
    }
    const auto t2 = Clock::now();
    const double plain = std::chrono::duration<double>(t1 - t0).count();
    const double traced = std::chrono::duration<double>(t2 - t1).count();
    Json tr = Json::object();
    tr.set("iters", kIters);
    tr.set("plain_ns_per_iter", plain * 1e9 / kIters);
    tr.set("disabled_trace_ns_per_iter", traced * 1e9 / kIters);
    tr.set("ratio", traced / plain);
    report.set("trace_disabled_overhead", std::move(tr));
  }

  std::printf("%s\n", report.dump().c_str());
  return 0;
}
