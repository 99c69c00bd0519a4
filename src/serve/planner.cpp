#include "serve/planner.h"

#include <memory>
#include <stdexcept>
#include <utility>

namespace ber {

namespace {

void check_descending(const std::vector<double>& voltages) {
  if (voltages.empty()) {
    throw std::invalid_argument("planner: empty voltage grid");
  }
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    if (voltages[i] <= 0.0 || voltages[i] > 1.5) {
      throw std::invalid_argument(
          "planner: voltages must be normalized (0, 1.5]");
    }
    if (i > 0 && voltages[i] >= voltages[i - 1]) {
      throw std::invalid_argument(
          "planner: voltages must be strictly descending");
    }
  }
}

}  // namespace

std::vector<double> OperatingPointPlan::voltages() const {
  std::vector<double> v;
  v.reserve(grid.size());
  for (const GridPoint& g : grid) v.push_back(g.voltage);
  return v;
}

std::vector<double> OperatingPointPlan::rates() const {
  std::vector<double> r;
  r.reserve(grid.size());
  for (const GridPoint& g : grid) r.push_back(g.rate);
  return r;
}

OperatingPointPlan select_operating_point(std::vector<GridPoint> grid,
                                          const SloConfig& slo) {
  if (grid.empty()) {
    throw std::invalid_argument("select_operating_point: empty grid");
  }
  OperatingPointPlan plan;
  for (GridPoint& g : grid) g.feasible = slo.upper_bound(g.rerr) <= slo.max_rerr;
  plan.grid = std::move(grid);
  // Contiguous-prefix walk: stop at the first point above the band — rates
  // only grow below that voltage, so nothing further down can qualify.
  std::size_t last_ok = 0;
  bool any_ok = false;
  for (std::size_t i = 0; i < plan.grid.size(); ++i) {
    if (!plan.grid[i].feasible) break;
    last_ok = i;
    any_ok = true;
  }
  plan.chosen = last_ok;
  plan.feasible = any_ok;
  plan.below_vmin = any_ok && plan.grid[last_ok].voltage < 1.0;
  plan.energy_saving = any_ok ? 1.0 - plan.grid[last_ok].energy : 0.0;
  return plan;
}

OperatingPointPlanner::OperatingPointPlanner(Sequential& model,
                                             const QuantScheme& scheme)
    : model_(model), scheme_(scheme), evaluator_(model, scheme) {}

OperatingPointPlan OperatingPointPlanner::plan(
    const FaultModel& fault, const Dataset& data,
    const std::vector<double>& voltages, const SloConfig& slo, int n_chips,
    long batch) const {
  check_descending(voltages);
  require_persistent(fault, "planner");
  std::vector<double> rates;
  rates.reserve(voltages.size());
  for (double v : voltages) rates.push_back(fault.rate_at_voltage(v));
  std::vector<RobustResult> sweep =
      evaluator_.run_rate_sweep(fault, rates, data, n_chips, batch);
  std::vector<GridPoint> grid(voltages.size());
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    grid[i].voltage = voltages[i];
    grid[i].rate = rates[i];
    grid[i].rerr = std::move(sweep[i]);
    grid[i].energy = energy_.energy_per_access(voltages[i]);
  }
  return select_operating_point(std::move(grid), slo);
}

std::vector<Replica> OperatingPointPlanner::deploy_fleet(
    const FaultModel& fault, const OperatingPointPlan& plan,
    int n_replicas) const {
  if (n_replicas < 1) {
    throw std::invalid_argument("deploy_fleet: need at least one replica");
  }
  require_persistent(fault, "deploy_fleet");
  auto base = std::make_shared<NetSnapshot>(evaluator_.snapshot());
  const NetQuantizer quantizer(scheme_);
  const double p_bottom = plan.grid.back().rate;
  std::vector<Replica> fleet;
  fleet.reserve(static_cast<std::size_t>(n_replicas));
  for (int r = 0; r < n_replicas; ++r) {
    ChipFaultList faults =
        fault.fault_list(*base, static_cast<std::uint64_t>(r), p_bottom);
    fleet.emplace_back(r, model_, quantizer, base, std::move(faults),
                       plan.voltages(), plan.rates(), plan.chosen, on_codes_);
  }
  return fleet;
}

double OperatingPointPlanner::fleet_energy_per_access(
    const std::vector<Replica>& fleet) const {
  if (fleet.empty()) return 1.0;
  double sum = 0.0;
  for (const Replica& r : fleet) {
    sum += energy_.energy_per_access(r.point().voltage);
  }
  return sum / static_cast<double>(fleet.size());
}

Json plan_to_json(const OperatingPointPlan& plan, const SloConfig& slo) {
  Json grid = Json::array();
  for (const GridPoint& g : plan.grid) {
    Json gj = Json::object();
    gj.set("v", g.voltage);
    gj.set("p", g.rate);
    gj.set("rerr_mean", static_cast<double>(g.rerr.mean_rerr));
    gj.set("rerr_std", static_cast<double>(g.rerr.std_rerr));
    gj.set("ucb", slo.upper_bound(g.rerr));
    gj.set("energy", g.energy);
    gj.set("feasible", g.feasible);
    grid.push_back(std::move(gj));
  }
  Json j = Json::object();
  j.set("grid", std::move(grid));
  j.set("feasible", plan.feasible);
  j.set("chosen_v", plan.chosen_point().voltage);
  j.set("chosen_p", plan.chosen_point().rate);
  j.set("below_vmin", plan.below_vmin);
  j.set("energy_saving", plan.energy_saving);
  return j;
}

}  // namespace ber
