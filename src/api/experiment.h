// The experiment engine: a Runner that executes an ExperimentSpec (parsed
// from a config file, or filled field by field in C++) and owns the two
// lifecycles behind every number in the repo —
//
//   robustness:  resolve model (zoo::load_or_train: the one recipe cache
//                for zoo and inline entries) -> quantize once ->
//                construct the fault model by name -> sweep (rate grid /
//                voltage grid / generic param grid / single point) ->
//                aggregate
//   serve:       resolve model -> plan the operating point
//                (voltage sweep + SRAM energy + SLO) -> deploy a fleet ->
//                canary + optional traffic drive through the ReplicaPool
//
// — and a structured Report (JSON-ready via core/json) carrying both the
// machine-readable results and the RobustResults benches format tables
// from. bench_util's rerr/rerr_sweep helpers and the ber_run CLI are thin
// shells over this; a Runner run of a spec is bit-identical to the legacy
// hand-wired paths for a fixed seed (pinned in tests/test_api.cpp).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/spec.h"
#include "core/json.h"
#include "faults/evaluator.h"
#include "serve/planner.h"

namespace ber::api {

// One sweep point of one model: x is the point's position on the sweep axis
// (rate, voltage or the generic grid parameter; 0 for single-point runs).
struct ReportPoint {
  double x = 0.0;
  RobustResult result;
};

struct ModelReport {
  std::string name;       // zoo name or inline entry name
  std::string label;      // table row label
  std::string axis;       // "p" | "v" | grid param | "" (single point)
  double clean_err = -1.0;  // fraction; -1 = not requested
  std::string fault;      // FaultModel::describe() of the last point
  std::vector<ReportPoint> points;
  // ForensicsCollector::to_json() when eval.forensics was enabled for this
  // model (flip ledger totals, bit-position attribution, probe summaries);
  // null otherwise.
  Json forensics;
};

// Deterministic serving-lifecycle results (plus traffic counters when the
// spec drives requests through the pool).
struct ServeReport {
  double clean_err = 0.0;
  SloConfig slo;
  OperatingPointPlan plan;
  std::vector<double> canary_errs;  // per replica, deployed at plan.chosen
  double fleet_energy = 1.0;        // mean energy/access vs Vmin
  long requests = 0;
  long answered = 0;
  long rejected = 0;                // bounded-queue admission rejections
  double mean_batch = 0.0;
  // Windowed SLO timeline (SloScoreboard::to_json()) when the spec drives
  // open-loop traffic; null otherwise.
  Json timeline;
};

struct Report {
  ExperimentSpec spec;
  std::vector<ModelReport> models;  // robustness kind
  ServeReport serve;                // serve kind
  // Snapshot of the obs metrics registry taken when the run finished
  // (cumulative for the process — a second run's snapshot includes the
  // first's counts). Null if the Report was built by hand.
  Json metrics;
  Json to_json() const;
};

// Executes a validated spec. The Runner owns the model of every entry it
// resolves (loaded from, or trained into, the zoo's checkpoint cache) and
// its eval subsets; full datasets live in data::dataset_store().
class Runner {
 public:
  explicit Runner(ExperimentSpec spec);  // validates
  Report run();

 private:
  struct ResolvedModel {
    Sequential* model = nullptr;
    QuantScheme scheme;
    std::string name;
    std::string label;
    const Dataset* train_set = nullptr;
    const Dataset* test_set = nullptr;
    const Dataset* eval_set = nullptr;  // split/subset applied
  };

  ResolvedModel resolve(const ModelEntry& entry);
  const Dataset& subset(const Dataset& full, long n);
  int n_trials() const;

  Report run_robustness();
  Report run_serve();

  ExperimentSpec spec_;
  std::vector<std::unique_ptr<Sequential>> owned_models_;
  // Explicit eval/canary subsets deduped by (parent dataset, n): a grid of
  // models sharing one eval set materializes its head exactly once.
  std::map<std::pair<const Dataset*, long>, std::unique_ptr<Dataset>>
      subsets_;
};

}  // namespace ber::api
