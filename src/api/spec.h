// ExperimentSpec: the typed, validated description of one experiment — the
// paper's scenario matrix (quantization scheme x clipping x training method
// x fault model x rate/voltage grid) as data instead of another hand-wired
// bench binary.
//
// A spec serializes to and from JSON (core/json.h; // comments allowed in
// files), so the same scenario can be expressed two ways, both executed by
// api::Runner (api/experiment.h):
//   * JSON: a config file run by the ber_run CLI (`ber_run configs/tab4.json`)
//     or a Json value, parsed by from_json,
//   * C++: an ExperimentSpec filled field by field.
//
// Sections: models (zoo references or inline model/quant/train definitions),
// fault (registry name + parameter map), eval (trials, data split, one of
// three sweep grids), serve (voltage grid + SLO + fleet/queue shape for
// kind "serve"), backend. Parsing rejects unknown keys and invalid values
// with actionable messages; to_json() emits the fully-normalized spec, and
// parse -> emit -> parse is the identity on that normalized form (pinned in
// tests/test_api.cpp).
#pragma once

#include <string>
#include <vector>

#include "core/json.h"
#include "data/shapes.h"
#include "models/factory.h"
#include "quant/quantizer.h"
#include "serve/batch_queue.h"
#include "serve/traffic_gen.h"
#include "train/trainer.h"

namespace ber::api {

// Dataset a model trains/evaluates on. `source` picks where records come
// from (data/source.h): "synthetic" renders the named preset; "idx",
// "cifar10" and "shard" read real files under `path`, with the config's
// n_train/n_test acting as per-split record caps (0 = all). Unknown
// sources are rejected at parse time with the accepted list.
struct DatasetSection {
  std::string name = "c10";          // synthetic preset (c10 | mnist | c100)
  std::string source = "synthetic";  // synthetic | idx | cifar10 | shard
  std::string path;                  // dataset root dir (file-backed sources)
  SyntheticConfig config;            // resolved preset / geometry + caps
};

// One trained recipe: either a zoo reference ({"zoo": "<name>"}, naming one
// of the zoo's own recipes, api/zoo.h) or an inline definition with
// dataset / model / quant / train sections. Both resolve through
// zoo::load_or_train.
struct ModelEntry {
  std::string zoo;    // non-empty -> zoo reference; only `label` also read
  std::string name;   // checkpoint cache stem ("" = retrain every run)
  std::string label;  // report row label ("" = the recipe's label, else name)
  DatasetSection dataset;
  ModelConfig model;
  QuantScheme quant = QuantScheme::rquant();
  TrainConfig train;  // train.quant mirrors `quant`

  bool is_zoo() const { return !zoo.empty(); }
};

// Fault scenario: a fault-model registry name plus its raw parameter map
// (validated by the factory at construction time, echoed verbatim by
// to_json).
struct FaultSection {
  std::string model = "random";
  Json params = Json::object();
};

// Generic fault-parameter sweep: rebuild the fault model per grid point with
// params[param] = value (e.g. ECC p sweep, adversarial budget sweep).
struct GridSection {
  std::string param;
  std::vector<double> values;
  bool empty() const { return values.empty(); }
};

// Opt-in fault forensics (obs/forensics.h): flip ledger, error-propagation
// probes and bit-position attribution, emitted as the report's `forensics`
// section. Code-space fault models only ("linf" perturbs float weights and
// "ecc" injects into the SECDED codeword space, where flips don't map to
// weight cells).
struct ForensicsSection {
  bool enabled = false;
  int probe_images = 0;     // propagation-probe batch size (0 = ledger only)
  double threshold = 1e-4;  // relative divergence that counts as "diverged"
  // Adversarial scenarios: also run a budget-matched random-flip control
  // pass, landing in the ledger as profile "control" next to "eval".
  bool control = false;
};

struct EvalSection {
  int n_trials = 0;            // chips/offsets/samples; 0 = zoo default
  std::string split = "rerr";  // "rerr" (reduced subset) | "test" (full)
  long subset = 0;             // explicit eval-subset size (0 = split default)
  long batch = 200;
  bool clean_err = true;       // also report the fault-free quantized Err
  // At most one of the three sweep axes:
  std::vector<double> rate_grid;     // fault "random": one list per chip
  std::vector<double> voltage_grid;  // fault "profiled": one list per mapping
  GridSection grid;                  // any fault: reconstruct per point
  // Post-training scheme ablation: evaluate under this scheme instead of the
  // model's training scheme.
  bool has_quant_override = false;
  QuantScheme quant_override;
  ForensicsSection forensics;
};

// Accuracy SLO for serving plans. Exactly one of max_rerr / clean_plus is
// active: clean_plus >= 0 resolves to (clean Err + clean_plus) at run time.
struct SloSection {
  double max_rerr = 0.1;
  double clean_plus = -1.0;
  double z = 2.0;
};

struct ServeSection {
  std::vector<double> voltages;  // strictly descending, normalized V/Vmin
  SloSection slo;
  int n_chips = 4;      // sweep trials per grid point
  int replicas = 3;     // fleet size
  long canary_subset = 0;  // examples for per-replica canaries (0 = full)
  BatchQueueConfig queue;
  long requests = 0;    // closed-loop traffic burst (0 = skip)
  // Open-loop load (serve/traffic_gen.h): arrival-process phases + SLO
  // scoreboard. Mutually exclusive with `requests` — a spec drives the pool
  // either closed-loop (the legacy burst) or open-loop, never both.
  TrafficConfig traffic;
};

struct ExperimentSpec {
  std::string name;
  std::string description;
  std::string kind = "robustness";  // "robustness" | "serve"
  std::string backend = "reference";
  // Compute-on-codes inference for code-space deploys: weight layers adopt
  // the (faulted) quantized code words and forwards run the backend's int8
  // qgemm over them instead of dequantize-then-float. The spec decides in
  // both directions: false runs float evaluation of the dequantized weights.
  bool compute_on_codes = false;
  std::vector<ModelEntry> models;
  FaultSection fault;
  EvalSection eval;
  ServeSection serve;

  // Parses + validates. Throws std::invalid_argument (or JsonError) with an
  // actionable message on unknown keys, unknown registry names or invalid
  // values.
  static ExperimentSpec from_json(const Json& j);
  // Json::parse_file + from_json.
  static ExperimentSpec load(const std::string& path);

  // The fully-normalized spec (defaults materialized).
  Json to_json() const;

  // Cross-field rules (grid/fault compatibility, registry names, backend
  // names, zoo names, serve shape). from_json and the Runner's constructor
  // run this, so a spec filled in C++ is checked like a parsed one.
  void validate() const;
};

Json model_entry_to_json(const ModelEntry& entry);
ModelEntry model_entry_from_json(const Json& j, const std::string& where);

// The fault parameter map the Runner hands the registry factory: the spec's
// fault params plus the sweep-axis defaults ("p" = max(rate_grid),
// "voltage" = min(voltage_grid) — both ignored by the grid sweeps
// themselves — and grid.param = *grid_value when a generic grid is active).
// validate() dry-constructs context-free fault models from the same map, so
// parameter typos fail at parse time, not mid-run.
Json resolved_fault_params(const ExperimentSpec& spec,
                           const double* grid_value);

}  // namespace ber::api
