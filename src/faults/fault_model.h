// The unified fault-scenario interface.
//
// The paper's experimental loop is always the same shape: quantize a network
// once, perturb the stored representation per "trial" (a chip, an offset
// mapping, a noise sample), evaluate, aggregate over trials. What varies is
// only HOW the representation is perturbed. A FaultModel captures that
// variation point so one RobustnessEvaluator (faults/evaluator.h) can run
// every scenario — uniform random bit errors (Sec. 3), profiled chips
// (Tab. 5), SECDED-protected memories (Sec. 1) and L-inf weight noise
// (Fig. 9) — and so new scenarios (adversarial bit errors, new memories)
// plug in without another hand-rolled sweep.
//
// A model perturbs one of two spaces, reported by space():
//   * kQuantizedCodes — apply(snapshot, trial) mutates quantized codes; the
//     evaluator dequantizes afterwards. The deterministic trial index is the
//     only randomness input: models derive their own seeds from it, so a
//     fixed (model config, trial) pair is a reproducible chip.
//   * kFloatWeights — apply_weights(params, trial) perturbs float weights
//     directly (no quantization involved).
// Calling the hook for the wrong space throws std::logic_error.
//
// Persistent models (persistent()) add a second, multi-rate view of the same
// faults: a trial is one fixed chip whose faulty cells at rate p' <= p are a
// subset of those at p. fault_list() materializes the chip once at the top
// rate of a grid and the list serves every lower rate, so one sweep, one
// planner and one fleet builder cover uniform random errors and profiled
// chips alike; only rate_at_voltage() — the voltage -> rate curve — differs.
//
// Models must be safe to call concurrently for distinct trials (the
// evaluator builds fault lists and runs (trial, rate-point) cells in
// parallel on one shared const model).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "biterror/injector.h"
#include "nn/layer.h"
#include "quant/net_quantizer.h"

namespace ber {

enum class FaultSpace { kQuantizedCodes, kFloatWeights };

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  // Human-readable scenario description for bench/report labeling.
  virtual std::string describe() const = 0;

  virtual FaultSpace space() const { return FaultSpace::kQuantizedCodes; }

  // Throws std::invalid_argument if this model cannot operate on snapshots
  // with `layout`'s shape (e.g. bit widths it cannot pack). The evaluator
  // calls this once on the calling thread before fanning trials out to
  // workers, so a bad layout fails before any trial runs. (Exceptions from
  // worker threads reach the caller too: core/parallel.h rethrows them.)
  virtual void validate_layout(const NetSnapshot& layout) const;

  // Injects trial `trial`'s faults into the quantized snapshot. Returns the
  // number of code words changed. Only for kQuantizedCodes models.
  virtual std::size_t apply(NetSnapshot& snap, std::uint64_t trial) const;

  // Perturbs float weights in place for trial `trial`. Only for
  // kFloatWeights models.
  virtual void apply_weights(const std::vector<Param*>& params,
                             std::uint64_t trial) const;

  // Optional capability: persistent faults (see the header comment).
  // fault_list() is trial `trial`'s sparse fault pattern over `layout`,
  // covering every rate up to p_max; applying it at rate p reproduces
  // apply() of the same trial at p bit-exactly. rate_at_voltage() is the
  // model's bit error rate at normalized voltage v (V/Vmin), non-increasing
  // in v.
  virtual bool persistent() const { return false; }
  virtual ChipFaultList fault_list(const NetSnapshot& layout,
                                   std::uint64_t trial, double p_max) const;
  virtual double rate_at_voltage(double v) const;
};

// Throws std::invalid_argument naming `caller` unless `fault` is persistent.
void require_persistent(const FaultModel& fault, const char* caller);

}  // namespace ber
