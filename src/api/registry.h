// Name -> component mappings for the declarative experiment API.
//
// Every component a spec file can name — fault models, architectures,
// norms, datasets, quantization schemes, training methods — is
// constructible by name (plus a JSON parameter map for fault models), so
// new scenarios are DECLARED (a config file, or an ExperimentSpec filled in
// C++) instead of compiled into another bespoke binary. Each mapping is one
// constexpr name table that its *_by_name, *_names() and *_to_name all
// read; the *_names() lists are what `ber_run --list` prints.
//
// Unknown names throw std::invalid_argument listing the known names; unknown
// parameter keys throw with the offending key and the accepted ones (see
// ParamReader) — spec typos fail loudly with an actionable message instead
// of silently running a default scenario.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/json.h"
#include "data/dataset.h"
#include "data/shapes.h"
#include "faults/fault_model.h"
#include "models/factory.h"
#include "nn/sequential.h"
#include "quant/quantizer.h"
#include "train/trainer.h"

namespace ber::api {

// -------------------------------------------------------------- ParamReader --

// Checked reader over a JSON parameter object: typed getters with defaults,
// and finish() rejects keys nobody consumed ("fault 'random': unknown key
// 'pp' (known: p, flip_fraction, ...)"). Every fault-model factory and spec
// section parser funnels its JSON through one of these.
class ParamReader {
 public:
  // `where` labels error messages (e.g. "fault \"random\""). `params` must
  // be an object (or null, treated as empty); other types throw.
  ParamReader(std::string where, const Json& params);

  bool has(const std::string& key) const;
  double number(const std::string& key, double fallback);
  double require_number(const std::string& key);
  long integer(const std::string& key, long fallback);
  bool boolean(const std::string& key, bool fallback);
  std::string str(const std::string& key, const std::string& fallback);
  std::string require_str(const std::string& key);
  // Array of numbers; missing key -> empty.
  std::vector<double> numbers(const std::string& key);
  // Raw subobject (missing -> null Json); marks the key consumed.
  const Json& raw(const std::string& key);

  // Throws std::invalid_argument on the first unconsumed key.
  void finish() const;

  [[noreturn]] void fail(const std::string& why) const;

 private:
  const Json* get(const std::string& key);

  std::string where_;
  const Json& params_;
  std::vector<std::string> consumed_;
  static const Json kNull;
};

// ------------------------------------------------------------ fault models --

// Construction context for fault-model factories. Everything is optional;
// factories that need a field throw an actionable error when it is missing
// (e.g. "adversarial" needs model/scheme/attack_set to mount the attack).
struct FaultContext {
  Sequential* model = nullptr;          // the network under evaluation
  const QuantScheme* scheme = nullptr;  // its deployment scheme
  const NetSnapshot* layout = nullptr;  // quantized layout (flip validation)
  const Dataset* attack_set = nullptr;  // gradient source for attacks
  int n_trials = 0;                     // trials the evaluator will run
};

// Constructs one of the five built-in fault models by name:
//   random      — RandomBitErrorModel   (p, flip/set1/set0 fractions, seed_base)
//   profiled    — ProfiledChipModel     (chip preset or geometry, voltage, seed)
//   ecc         — EccProtectedModel     (p, seed_base, persistent composition)
//   linf        — LinfNoiseModel        (rel_eps, seed_base)
//   adversarial — AdversarialBitErrorModel via BitFlipAttacker (budget,
//                 rounds, schedule, ...; control=true for the budget-matched
//                 random-flip control)
std::unique_ptr<FaultModel> make_fault_model(const std::string& name,
                                             const Json& params,
                                             const FaultContext& ctx);

// --------------------------------------------------- name <-> enum mappings --

// Each throws std::invalid_argument listing the known names on a miss.
Arch arch_by_name(const std::string& name);         // simplenet | resnet | mlp
NormKind norm_by_name(const std::string& name);     // groupnorm | batchnorm | none (+ gn, bn)
Method method_by_name(const std::string& name);     // normal | clipping | randbet | pattbet
SyntheticConfig dataset_by_name(const std::string& name);  // c10 | mnist | c100
// Base scheme by name: normal | rquant | global_symmetric | rquant_trunc |
// symmetric_rounded (bit width applied by the caller).
QuantScheme quant_scheme_by_name(const std::string& name, int bits);

// The canonical names, for tooling (`ber_run --list`): each mapping's table
// minus its parse-only aliases (norm "gn"/"bn").
const std::vector<std::string>& fault_model_names();
const std::vector<std::string>& arch_names();
const std::vector<std::string>& norm_names();
const std::vector<std::string>& method_names();
const std::vector<std::string>& dataset_names();
const std::vector<std::string>& quant_scheme_names();

const char* arch_to_name(Arch arch);
const char* norm_to_name(NormKind norm);
const char* method_to_name(Method method);
const char* quant_scheme_to_name(const QuantScheme& scheme);  // "" if unnamed

// Parses a full quant section: {"scheme": "rquant", "bits": 8} with optional
// explicit axis overrides ("scope", "asymmetric", "unsigned", "rounded").
QuantScheme quant_from_json(const Json& params, const std::string& where);
Json quant_to_json(const QuantScheme& scheme);

}  // namespace ber::api
