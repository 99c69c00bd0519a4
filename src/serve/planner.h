// Energy/SLO operating-point planning: turns a robustness sweep plus the
// SRAM energy model into a deployment voltage.
//
// The accuracy SLO is an upper bound on served RErr at a confidence level:
// a grid point is feasible when mean + z * std over the swept chips stays
// below max_rerr (Gaussian upper-bound proxy on the per-chip RErr
// distribution, from RobustResult's streaming moments — z = 2 covers ~97.7%
// of chips). The planner walks the voltage grid from Vmin down and stops at
// the first infeasible point: error grows monotonically as voltage drops
// (fault persistence), so the feasible region is a contiguous prefix and
// the last feasible point is the lowest-energy voltage that meets the SLO.
//
// Any persistent fault model plans the same way: the voltage grid maps to
// rates through the model's rate_at_voltage() (the default Fig. 1 curve for
// uniform random errors, the chip's own curve for a profiled chip), and the
// evaluator's run_rate_sweep costs one fault list build per chip for the
// whole grid. deploy_fleet() then hands each replica the chip of one sweep
// trial, its list built once at the grid bottom, deployed at the planned
// voltage.
#pragma once

#include <cstddef>
#include <vector>

#include "core/json.h"
#include "data/dataset.h"
#include "energy/energy_model.h"
#include "faults/evaluator.h"
#include "faults/fault_model.h"
#include "serve/replica.h"

namespace ber {

// Accuracy SLO: served RErr must stay below max_rerr with confidence.
struct SloConfig {
  double max_rerr = 0.1;  // fraction misclassified
  double z = 2.0;         // upper-bound multiplier on the chip std

  // The chip-distribution upper bound the SLO is checked against.
  double upper_bound(const RobustResult& r) const {
    return static_cast<double>(r.mean_rerr) + z * static_cast<double>(r.std_rerr);
  }
};

struct GridPoint {
  double voltage = 1.0;  // normalized V/Vmin
  double rate = 0.0;     // bit error rate at this voltage
  RobustResult rerr;     // swept robustness at this rate
  double energy = 1.0;   // per SRAM access, vs Vmin
  bool feasible = false;
};

struct OperatingPointPlan {
  std::vector<GridPoint> grid;  // descending voltage
  std::size_t chosen = 0;       // lowest feasible voltage (0 if none)
  bool feasible = false;        // grid[chosen] meets the SLO
  bool below_vmin = false;      // chosen voltage < 1.0
  double energy_saving = 0.0;   // 1 - grid[chosen].energy (0 if infeasible)

  const GridPoint& chosen_point() const { return grid[chosen]; }
  std::vector<double> voltages() const;
  std::vector<double> rates() const;
};

// The pure selection rule (unit-testable without an evaluator): fills in
// feasibility, walks the grid from index 0 down while feasible, and picks
// the last feasible point. `grid` must be in descending-voltage order.
OperatingPointPlan select_operating_point(std::vector<GridPoint> grid,
                                          const SloConfig& slo);

// The plan as a JSON object — one schema shared by every report that
// carries a planner section (api::Report, bench_serving): per-point
// {v, p, rerr_mean, rerr_std, ucb, energy, feasible} under "grid", plus
// feasible / chosen_v / chosen_p / below_vmin / energy_saving.
Json plan_to_json(const OperatingPointPlan& plan, const SloConfig& slo);

class OperatingPointPlanner {
 public:
  // Quantizes `model` once under `scheme`; the model must outlive the
  // planner (replica clones are cut from it at deploy time). Energy is
  // priced on the default Fig. 1 curve (SramEnergyModel{}).
  OperatingPointPlanner(Sequential& model, const QuantScheme& scheme);

  // Plans against persistent `fault`: voltages (strictly descending,
  // normalized; include 1.0 to always have a Vmin fallback) are mapped to
  // rates via fault.rate_at_voltage() and swept with n_chips trials each.
  // Throws std::invalid_argument for non-persistent models.
  OperatingPointPlan plan(const FaultModel& fault, const Dataset& data,
                          const std::vector<double>& voltages,
                          const SloConfig& slo, int n_chips,
                          long batch = 200) const;

  // Builds n_replicas replicas of the planned deployment: replica r serves
  // the chip of sweep trial r (a profiled chip's mapping r), with ONE fault
  // list built at the grid bottom (so step_up()/deploy() can move along the
  // whole grid), deployed at plan.chosen.
  std::vector<Replica> deploy_fleet(const FaultModel& fault,
                                    const OperatingPointPlan& plan,
                                    int n_replicas) const;

  // Mean energy per access of a fleet (vs Vmin), from each replica's
  // current operating point.
  double fleet_energy_per_access(const std::vector<Replica>& fleet) const;

  const RobustnessEvaluator& evaluator() const { return evaluator_; }
  const SramEnergyModel& energy() const { return energy_; }

  // Compute-on-codes for both the planning sweeps and the deployed fleet
  // (see RobustnessEvaluator::set_compute_on_codes / Replica). Defaults to
  // off, like the evaluator's.
  void set_compute_on_codes(bool on) {
    on_codes_ = on;
    evaluator_.set_compute_on_codes(on);
  }
  bool compute_on_codes() const { return on_codes_; }

 private:
  Sequential& model_;
  QuantScheme scheme_;
  SramEnergyModel energy_;
  RobustnessEvaluator evaluator_;
  bool on_codes_ = false;
};

}  // namespace ber
