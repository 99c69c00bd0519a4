// One serving replica of a quantized model on a simulated faulty chip.
//
// A replica owns a clone of the served model plus everything needed to
// (re)deploy it along a voltage grid: the shared quantized base snapshot,
// the chip's sparse ChipFaultList — built ONCE at the most aggressive grid
// voltage — and the aligned (voltage, rate) grid. deploy(i) materializes
// exactly the weights a chip at grid voltage i would hold: base codes plus
// the chip's faults at that voltage's rate.
//
// Deploys are incremental: the replica keeps its currently-deployed
// snapshot, so moving to another grid point rewrites only the code words
// whose faulted value differs between the two rates
// (ChipFaultList::apply_delta) — O(#fault-delta) work and bytes instead of
// O(W) — and re-deploying the current point is a no-op. deploy_full() is
// the from-scratch path (also the first deploy), kept public as the
// bit-identity oracle for the delta path. deploy_stats() reports how many
// deploys were delta/no-op and the bytes written, which bench_serving
// surfaces per fleet.
//
// Deployment is weight-space with on_codes=false (dequantize into the
// float params); with the constructor's on_codes=true weight layers adopt
// the code words themselves
// (nn/code_compute.h) and inference runs the backend's int8 qgemm over
// them — a delta redeploy then patches code, int8 mirror and float mirror
// together, O(1) per changed word.
//
// Thread model: a replica has no internal locking. The ReplicaPool gives
// each worker thread exclusive ownership of one replica; forward/deploy/
// canary must not be called concurrently on the same replica.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "biterror/injector.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "nn/sequential.h"
#include "quant/net_quantizer.h"

namespace ber {

// The (voltage, rate, chip) triple a replica currently serves at.
struct OperatingPoint {
  double voltage = 1.0;    // normalized V/Vmin
  double rate = 0.0;       // bit error rate the chip exhibits at `voltage`
  std::uint64_t chip = 0;  // chip identity (fault-model trial index)
};

class Replica {
 public:
  // Per-replica deployment telemetry (monotone counters; the pool folds
  // them into ServingStats).
  struct DeployStats {
    long deploys = 0;        // deploy() calls (incl. the constructor's)
    long delta_deploys = 0;  // served by the incremental path
    long noop_deploys = 0;   // same grid point, nothing to do
    // Weight-memory traffic: bytes of code words + mirrors rewritten. A
    // full deploy writes every word; a delta deploy only the changed ones.
    unsigned long long bytes_written = 0;
  };

  // `voltages` must be strictly descending (index 0 = safest, closest to
  // Vmin) with `rates` aligned and non-decreasing; `faults` must cover the
  // bottom of the grid (p_max() >= rates.back()). Deploys at `deploy_index`
  // immediately. `on_codes` selects compute-on-codes deployment; the
  // caller always states it (the planner passes its own setting).
  Replica(int id, const Sequential& model, const NetQuantizer& quantizer,
          std::shared_ptr<const NetSnapshot> base, ChipFaultList faults,
          std::vector<double> voltages, std::vector<double> rates,
          std::size_t deploy_index, bool on_codes);

  // Moves the clone to grid point `i`: no-op if already there, otherwise a
  // delta redeploy patching only the code words whose faulted value
  // differs from the currently deployed ones.
  void deploy(std::size_t grid_index);

  // From-scratch deploy at grid point `i`: copy base, apply faults, write
  // every weight. Bit-identical outcome to any deploy() sequence ending at
  // `i` (tested in test_serve.cpp); public as that oracle and as the
  // escape hatch if the deployed snapshot is ever externally clobbered.
  void deploy_full(std::size_t grid_index);

  // One voltage step up (toward Vmin, i.e. safer). The new fault set is a
  // strict subset of the current one, so the delta patch is exactly the
  // faults that healed. Returns false at the top of the grid.
  bool step_up();

  int id() const { return id_; }
  std::size_t grid_index() const { return index_; }
  OperatingPoint point() const;
  const std::vector<double>& voltages() const { return voltages_; }
  const std::vector<double>& rates() const { return rates_; }
  // Code words the last deploy() left differing from the clean base (same
  // meaning under full and delta deploys).
  std::size_t faults_applied() const { return last_changed_; }
  const DeployStats& deploy_stats() const { return deploy_stats_; }
  bool compute_on_codes() const { return on_codes_; }

  // Eval-mode forward pass on an [N,C,H,W] batch; returns logits.
  Tensor forward(const Tensor& batch) {
    return model_.forward(batch, /*training=*/false);
  }

  // The replica's private clone (deployed weights) — for inspection/tests.
  Sequential& model() { return model_; }

  // Scores the replica on a held-out probe set (the canary).
  EvalResult canary(const Dataset& probe, long batch = 200) {
    return evaluate(model_, probe, batch);
  }

 private:
  // Bytes accounted per rewritten code word: the stored code (uint16), its
  // float mirror, and the int8 level mirror in code mode.
  unsigned long long bytes_per_word() const {
    return sizeof(std::uint16_t) + sizeof(float) + (on_codes_ ? 1 : 0);
  }

  int id_;
  Sequential model_;  // this replica's private clone
  NetQuantizer quantizer_;
  std::shared_ptr<const NetSnapshot> base_;
  ChipFaultList faults_;
  std::vector<double> voltages_;
  std::vector<double> rates_;
  std::size_t index_ = 0;
  std::size_t last_changed_ = 0;
  bool on_codes_ = false;
  std::vector<ParamSlot> slots_;  // into model_, snapshot-tensor order
  NetSnapshot snap_;              // the currently deployed snapshot
  bool snap_valid_ = false;
  DeployStats deploy_stats_;
};

}  // namespace ber
