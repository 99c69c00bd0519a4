// Injection-throughput microbenchmark for the random bit error hot path.
//
// Compares, at p in {1e-4, 1e-3, 1e-2}:
//   * scalar  — the scalar reference loop (inject_random_bit_errors), one
//     hash per coordinate;
//   * build   — constructing a ChipFaultList (the once-per-chip hash sweep);
//   * apply   — applying a prebuilt ChipFaultList (the steady-state cost the
//     evaluator pays per batch / voltage / rate of a trial);
//   * build_mt / apply_mt — the same two on the intra-tensor sharded path
//     with default_threads() workers (an apply of fewer faults than the
//     intra-op floor, here p < ~4e-3, stays inline). The snapshot is ONE
//     dominant tensor, exactly the case per-tensor parallelism could not
//     split.
// The single-thread columns run inside a ParallelWorkerScope, which keeps
// the list's shard loops inline (core/parallel.h).
//
// Emits a single JSON object (core/json) on stdout so future PRs can track
// the hot path; `apply_speedup_vs_scalar` is the acceptance number (>= 5x at
// p <= 1e-2).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "biterror/injector.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "quant/quantizer.h"

namespace {

using namespace ber;
using bench::seconds_per_call;

constexpr std::size_t kWeights = 2'000'000;
constexpr int kBits = 8;

NetSnapshot make_snapshot() {
  Rng rng(1);
  std::vector<float> w(kWeights);
  for (auto& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  NetSnapshot snap;
  snap.tensors.push_back(quantize(w, QuantScheme::rquant(kBits)));
  snap.offsets.push_back(0);
  return snap;
}

}  // namespace

int main() {
  NetSnapshot snap = make_snapshot();
  const double total_words = static_cast<double>(kWeights);
  const int threads = default_threads();

  Json report = Json::object();
  report.set("bench", "injection");
  report.set("weights", static_cast<long>(kWeights));
  report.set("bits", kBits);
  report.set("threads", threads);
  Json results = Json::array();
  for (double p : {1e-4, 1e-3, 1e-2}) {
    BitErrorConfig cfg;
    cfg.p = p;  // default flip-only mix: injection is an involution, so
                // repeated in-place application is safe for timing.
    const double scalar_sec = seconds_per_call(
        [&] { inject_random_bit_errors(snap, cfg, /*chip=*/7); });
    const double build_sec = seconds_per_call([&] {
      const ParallelWorkerScope one_thread;
      ChipFaultList list(snap, cfg, /*chip_seed=*/7, p);
    });
    const double build_mt_sec = seconds_per_call(
        [&] { ChipFaultList list(snap, cfg, /*chip_seed=*/7, p); });
    const ChipFaultList list(snap, cfg, 7, p);
    const double apply_sec = seconds_per_call([&] {
      const ParallelWorkerScope one_thread;
      list.apply(snap, p);
    });
    const double apply_mt_sec =
        seconds_per_call([&] { list.apply(snap, p); });

    Json row = Json::object();
    row.set("p", p);
    row.set("faults", static_cast<long>(list.size()));
    row.set("scalar_words_per_sec", total_words / scalar_sec);
    row.set("build_words_per_sec", total_words / build_sec);
    row.set("apply_words_per_sec", total_words / apply_sec);
    row.set("build_mt_words_per_sec", total_words / build_mt_sec);
    row.set("apply_mt_words_per_sec", total_words / apply_mt_sec);
    row.set("apply_speedup_vs_scalar", scalar_sec / apply_sec);
    row.set("build_mt_speedup", build_sec / build_mt_sec);
    results.push_back(std::move(row));
  }
  report.set("results", std::move(results));
  std::printf("%s\n", report.dump().c_str());
  return 0;
}
