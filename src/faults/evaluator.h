// RobustnessEvaluator: the one quantize -> inject -> evaluate -> aggregate
// pipeline behind every robustness number in the repo.
//
// Each mode takes one fault space. A quantizing evaluator snapshots
// (quantizes) the model's parameters ONCE and runs kQuantizedCodes models;
// a float-space evaluator runs kFloatWeights models on the float weights.
// The unit of work is one (trial, rate-point) cell: n trials x k points
// form a grid whose cells pool workers claim one at a time until none are
// left, so no core idles when the cell count does not divide by the thread
// count. Each worker clones the model once, at its first claim, and reuses
// the clone for every later cell (each cell overwrites all of its weights).
// Trials are indexed 0..n-1 and every cell is deterministic per (model
// config, trial, point) and writes its error/confidence to a fixed
// [point][trial] slot, so results are reproducible and independent of
// thread count and claim order. run() and run_rate_sweep() share one
// code-space cell loop; run() is a one-point grid.
//
// run_rate_sweep() is the multi-rate fast path for persistent fault models
// (FaultModel::persistent — uniform random errors and profiled chips): the
// persistence property (faults at p' <= p are a subset of those at p) lets
// one ChipFaultList per trial, built at the top of the rate grid before any
// cell starts, serve every rate — each rate's results are bit-identical to
// a standalone run() at that rate, at a fraction of the hashing cost.
// Voltage grids map through the model's rate_at_voltage() first.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "faults/fault_model.h"
#include "nn/sequential.h"
#include "quant/net_quantizer.h"

namespace ber {

namespace obs {
class ForensicsCollector;
}

struct RobustResult {
  float mean_rerr = 0.0f;
  float std_rerr = 0.0f;
  float mean_confidence = 0.0f;
  std::vector<float> per_chip;
};

// Single-pass mean / sample-std accumulator (O(1) state).
class StreamingMoments {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    sumsq_ += x * x;
  }
  long count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / n_; }
  double sample_std() const;

 private:
  long n_ = 0;
  double sum_ = 0.0;
  double sumsq_ = 0.0;
};

class RobustnessEvaluator {
 public:
  // Quantizing evaluator — for kQuantizedCodes models only: snapshots
  // `model`'s parameters once under `scheme`; each trial perturbs a copy of
  // the snapshot. The model itself is never modified; it must outlive the
  // evaluator.
  RobustnessEvaluator(Sequential& model, const QuantScheme& scheme);

  // Float-space evaluator (no quantization) — for kFloatWeights models only.
  explicit RobustnessEvaluator(Sequential& model);

  // The quantized baseline snapshot (empty in float-space mode).
  const NetSnapshot& snapshot() const { return base_snap_; }

  // Compute-on-codes deployment for code-space trials: weight layers adopt
  // the faulted code words (nn/code_compute.h) and inference runs the
  // backend's int8 qgemm over them instead of dequantize-then-float. Only
  // affects kQuantizedCodes fault models; defaults to off (float
  // evaluation of the dequantized weights).
  void set_compute_on_codes(bool on) { on_codes_ = on; }
  bool compute_on_codes() const { return on_codes_; }

  // Opt-in fault forensics (obs/forensics.h). Code-space trials always run
  // their injection inside a ForensicsTrialScope tagged `profile` — free
  // when the global forensics gate is off — so an enabled ledger attributes
  // every flip to its trial. A non-null collector additionally gets a
  // propagation probe per trial (when prepared) and the per-trial error.
  // The collector must outlive the evaluator calls; nullptr detaches it.
  void set_forensics(obs::ForensicsCollector* collector,
                     const char* profile = "eval") {
    forensics_ = collector;
    forensics_profile_ = profile;
  }

  // Runs `n_trials` trials of `fault` and aggregates RErr / confidence.
  // Throws std::invalid_argument for a model of the other fault space.
  RobustResult run(const FaultModel& fault, const Dataset& data, int n_trials,
                   long batch = 200) const;

  // Evaluates persistent `fault`'s scenario across a whole rate grid,
  // building each trial's fault list once at max(rates). Returns one
  // RobustResult per rate, bit-identical to run() with the same model
  // configured at that rate (for a profiled chip: at the voltage the rate
  // came from). Throws std::invalid_argument for non-persistent models.
  std::vector<RobustResult> run_rate_sweep(const FaultModel& fault,
                                           const std::vector<double>& rates,
                                           const Dataset& data, int n_trials,
                                           long batch = 200) const;

 private:
  // The code-space cell loop. rates == nullptr: one point per trial,
  // injected with fault.apply(snap, trial). Otherwise one fault list per
  // trial at max(*rates), all built before the cells run, applied at each
  // rate. Returns one result per point.
  std::vector<RobustResult> run_cells(const FaultModel& fault,
                                      const std::vector<double>* rates,
                                      const Dataset& data, int n_trials,
                                      long batch) const;

  Sequential& model_;
  NetSnapshot base_snap_;
  bool quantizing_ = false;
  bool on_codes_ = false;
  obs::ForensicsCollector* forensics_ = nullptr;
  const char* forensics_profile_ = "eval";
};

}  // namespace ber
