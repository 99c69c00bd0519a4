// Shared helpers for the paper-table bench binaries.
//
// The RErr helpers are thin shells over the declarative experiment API
// (api/experiment.h): rerr()/rerr_sweep() fill a one-off api::ExperimentSpec
// for the zoo model, run it through api::Runner and extract the
// RobustResults from its Report, so bench binaries and
// `ber_run configs/*.json` produce their numbers through the same Runner
// code path (bit-identical for a fixed seed).
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "ber.h"
#include "api/zoo.h"

namespace ber::bench {

// Prints the bench banner: which paper artifact this binary regenerates.
void banner(const std::string& paper_ref, const std::string& what);

// Clean test error (in %) of a zoo model, quantized with its own scheme.
double clean_err_pct(const std::string& name);

// RErr (in %) of a zoo model at bit error rate p (fraction), under the
// model's own quantization scheme and the uniform flip model.
RobustResult rerr(const std::string& name, double p);

// RErr under an explicit scheme (post-training scheme ablations).
RobustResult rerr_with_scheme(const std::string& name,
                              const QuantScheme& scheme, double p);

// RErr of a zoo model across a whole rate grid in one pass: the model is
// quantized once and each chip's fault list is built once at max(grid)
// (RobustnessEvaluator::run_rate_sweep). Element i corresponds to grid[i]
// and is bit-identical to rerr(name, grid[i]).
std::vector<RobustResult> rerr_sweep(const std::string& name,
                                     const std::vector<double>& grid);

// Formats "mean ±std" of a RobustResult in %.
std::string fmt_rerr(const RobustResult& r);

// Runs fn repeatedly until ~0.3s elapsed (at least twice, after one
// warm-up call that also converges scratch arenas); returns seconds per
// call.
template <typename Fn>
double seconds_per_call(const Fn& fn) {
  using Clock = std::chrono::steady_clock;
  fn();
  int iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.3 || iters < 2);
  return elapsed / iters;
}

// Standard p grids (in %), matching the paper's columns.
const std::vector<double>& c10_p_grid();    // 0.01 .. 2.5
const std::vector<double>& c100_p_grid();   // 0.001 .. 1
const std::vector<double>& mnist_p_grid();  // 1 .. 20

}  // namespace ber::bench
