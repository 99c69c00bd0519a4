#include "api/registry.h"

#include <stdexcept>
#include <utility>

#include "attack/attacker.h"
#include "biterror/profiled_chip.h"
#include "faults/adversarial_model.h"
#include "faults/ecc_protected_model.h"
#include "faults/linf_noise_model.h"
#include "faults/profiled_chip_model.h"
#include "faults/random_bit_error_model.h"

namespace ber::api {

namespace {

// One row of a name table. `alias` rows (norm "gn"/"bn") parse but are
// never listed or printed: a value prints as the name of its first row.
template <typename T>
struct Named {
  const char* name;
  T value;
  bool alias = false;
};

// The canonical names of `table`, built once.
template <const auto& table>
const std::vector<std::string>& names_of() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& row : table) {
      if (!row.alias) v.emplace_back(row.name);
    }
    return v;
  }();
  return names;
}

// Throws std::invalid_argument listing the canonical names on a miss.
template <const auto& table>
auto lookup(const char* what, const std::string& name) {
  for (const auto& row : table) {
    if (name == row.name) return row.value;
  }
  std::string list;
  for (const std::string& n : names_of<table>()) {
    list += (list.empty() ? "" : ", ") + n;
  }
  throw std::invalid_argument(std::string("unknown ") + what + " \"" + name +
                              "\" (known: " + list + ")");
}

template <const auto& table, typename T>
const char* name_of(T value) {
  for (const auto& row : table) {
    if (row.value == value) return row.name;
  }
  return "?";
}

}  // namespace

// -------------------------------------------------------------- ParamReader --

const Json ParamReader::kNull;

ParamReader::ParamReader(std::string where, const Json& params)
    : where_(std::move(where)), params_(params) {
  if (!params_.is_object() && !params_.is_null()) {
    fail("parameters must be a JSON object, got " + params_.dump());
  }
}

void ParamReader::fail(const std::string& why) const {
  throw std::invalid_argument(where_ + ": " + why);
}

const Json* ParamReader::get(const std::string& key) {
  if (params_.is_null()) return nullptr;
  consumed_.push_back(key);
  return params_.find(key);
}

bool ParamReader::has(const std::string& key) const {
  return !params_.is_null() && params_.contains(key);
}

double ParamReader::number(const std::string& key, double fallback) {
  const Json* v = get(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) fail("\"" + key + "\" must be a number, got " + v->dump());
  return v->as_number();
}

double ParamReader::require_number(const std::string& key) {
  if (!has(key)) fail("missing required key \"" + key + "\"");
  return number(key, 0.0);
}

long ParamReader::integer(const std::string& key, long fallback) {
  const Json* v = get(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) fail("\"" + key + "\" must be an integer, got " + v->dump());
  try {
    return v->as_int();
  } catch (const JsonError&) {
    fail("\"" + key + "\" must be an integer, got " + v->dump());
  }
}

bool ParamReader::boolean(const std::string& key, bool fallback) {
  const Json* v = get(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) fail("\"" + key + "\" must be a bool, got " + v->dump());
  return v->as_bool();
}

std::string ParamReader::str(const std::string& key,
                             const std::string& fallback) {
  const Json* v = get(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) fail("\"" + key + "\" must be a string, got " + v->dump());
  return v->as_string();
}

std::string ParamReader::require_str(const std::string& key) {
  if (!has(key)) fail("missing required key \"" + key + "\"");
  return str(key, "");
}

std::vector<double> ParamReader::numbers(const std::string& key) {
  const Json* v = get(key);
  if (v == nullptr) return {};
  if (!v->is_array()) fail("\"" + key + "\" must be an array of numbers");
  std::vector<double> out;
  out.reserve(v->size());
  for (const Json& item : v->items()) {
    if (!item.is_number()) {
      fail("\"" + key + "\" must contain only numbers, got " + item.dump());
    }
    out.push_back(item.as_number());
  }
  return out;
}

const Json& ParamReader::raw(const std::string& key) {
  const Json* v = get(key);
  return v == nullptr ? kNull : *v;
}

void ParamReader::finish() const {
  if (params_.is_null()) return;
  for (const auto& [key, value] : params_.members()) {
    bool known = false;
    for (const std::string& c : consumed_) {
      if (c == key) { known = true; break; }
    }
    if (!known) {
      std::string msg = "unknown key \"" + key + "\" (known:";
      for (std::size_t i = 0; i < consumed_.size(); ++i) {
        msg += (i ? ", " : " ") + consumed_[i];
      }
      fail(msg + ")");
    }
  }
}

// ------------------------------------------------------------ fault models --

namespace {

BitErrorConfig bit_error_config_from(ParamReader& p) {
  BitErrorConfig cfg;
  cfg.p = p.require_number("p");
  cfg.flip_fraction = p.number("flip_fraction", cfg.flip_fraction);
  cfg.set1_fraction = p.number("set1_fraction", cfg.set1_fraction);
  cfg.set0_fraction = p.number("set0_fraction", cfg.set0_fraction);
  return cfg;
}

std::unique_ptr<FaultModel> make_random(const Json& params,
                                        const FaultContext&) {
  ParamReader p("fault \"random\"", params);
  const BitErrorConfig cfg = bit_error_config_from(p);
  const auto seed_base =
      static_cast<std::uint64_t>(p.integer("seed_base", 1000));
  p.finish();
  try {
    return std::make_unique<RandomBitErrorModel>(cfg, seed_base);
  } catch (const std::invalid_argument& e) {
    p.fail(e.what());
  }
}

std::unique_ptr<FaultModel> make_profiled(const Json& params,
                                          const FaultContext&) {
  ParamReader p("fault \"profiled\"", params);
  const double v = p.require_number("voltage");
  const std::string preset = p.str("chip", "chip1");
  ProfiledChipConfig cfg;
  if (preset == "chip1") cfg = ProfiledChipConfig::chip1();
  else if (preset == "chip2") cfg = ProfiledChipConfig::chip2();
  else if (preset == "chip3") cfg = ProfiledChipConfig::chip3();
  else p.fail("unknown chip preset \"" + preset +
              "\" (known: chip1, chip2, chip3)");
  if (p.has("seed")) {
    cfg.seed = static_cast<std::uint64_t>(p.integer("seed", 0));
  }
  cfg.rows = p.integer("rows", cfg.rows);
  cfg.cols = p.integer("cols", cfg.cols);
  cfg.vulnerable_column_fraction =
      p.number("vulnerable_column_fraction", cfg.vulnerable_column_fraction);
  cfg.column_boost = p.number("column_boost", cfg.column_boost);
  p.finish();
  return std::make_unique<ProfiledChipModel>(cfg, v);
}

std::unique_ptr<FaultModel> make_ecc(const Json& params, const FaultContext&) {
  ParamReader p("fault \"ecc\"", params);
  const double rate = p.require_number("p");
  const bool persistent = p.boolean("persistent", false);
  const auto seed_base =
      static_cast<std::uint64_t>(p.integer("seed_base", 7777));
  const auto inner_seed =
      static_cast<std::uint64_t>(p.integer("inner_seed_base", 1000));
  p.finish();
  if (persistent) {
    // Monotone hash-addressed faults reaching data AND check bits: SECDED
    // composed with the Sec. 3 random model through its codeword hooks.
    BitErrorConfig cfg;
    cfg.p = rate;
    return std::make_unique<EccProtectedModel>(
        std::make_unique<RandomBitErrorModel>(cfg, inner_seed));
  }
  return std::make_unique<EccProtectedModel>(rate, seed_base);
}

std::unique_ptr<FaultModel> make_linf(const Json& params, const FaultContext&) {
  ParamReader p("fault \"linf\"", params);
  const double rel_eps = p.require_number("rel_eps");
  const auto seed_base =
      static_cast<std::uint64_t>(p.integer("seed_base", 2000));
  p.finish();
  if (rel_eps < 0.0) p.fail("\"rel_eps\" must be >= 0");
  return std::make_unique<LinfNoiseModel>(rel_eps, seed_base);
}

std::unique_ptr<FaultModel> make_adversarial(const Json& params,
                                             const FaultContext& ctx) {
  ParamReader p("fault \"adversarial\"", params);
  const long budget = p.integer("budget", 32);
  const bool control = p.boolean("control", false);
  const int trials = static_cast<int>(p.integer("trials", ctx.n_trials));
  if (trials < 1) {
    p.fail("\"trials\" must be >= 1 (or run through an evaluator that sets "
           "the trial count)");
  }
  if (ctx.layout == nullptr) {
    p.fail("needs a quantized snapshot layout (construct through the "
           "Runner, which passes a FaultContext)");
  }
  if (control) {
    const auto seed_base =
        static_cast<std::uint64_t>(p.integer("seed_base", 3000));
    // Consume (and ignore) the attack-shaping keys so flipping a spec to
    // its budget-matched control is one edit, not five.
    (void)p.integer("rounds", 0);
    (void)p.str("schedule", "");
    (void)p.integer("attack_examples", 0);
    (void)p.integer("batch", 0);
    (void)p.integer("seed", 0);
    p.finish();
    return std::make_unique<AdversarialBitErrorModel>(random_flip_model(
        *ctx.layout, static_cast<std::size_t>(budget), trials, seed_base));
  }
  AttackConfig cfg;
  cfg.budget = static_cast<int>(budget);
  cfg.rounds = static_cast<int>(p.integer("rounds", cfg.rounds));
  const std::string schedule = p.str("schedule", "uniform");
  if (schedule == "uniform") cfg.schedule = BudgetSchedule::kUniform;
  else if (schedule == "geometric") cfg.schedule = BudgetSchedule::kGeometric;
  else p.fail("unknown schedule \"" + schedule +
              "\" (known: uniform, geometric)");
  cfg.attack_examples = p.integer("attack_examples", cfg.attack_examples);
  cfg.batch = p.integer("batch", cfg.batch);
  cfg.seed = static_cast<std::uint64_t>(p.integer("seed", 0));
  p.finish();
  if (ctx.model == nullptr || ctx.scheme == nullptr ||
      ctx.attack_set == nullptr) {
    p.fail("needs model + scheme + attack_set in the FaultContext to mount "
           "the gradient-guided attack");
  }
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    p.fail(e.what());
  }
  BitFlipAttacker attacker(*ctx.model, *ctx.scheme, *ctx.attack_set, cfg);
  return std::make_unique<AdversarialBitErrorModel>(
      make_adversarial_model(attacker, *ctx.layout, trials));
}

using FaultFactory = std::unique_ptr<FaultModel> (*)(const Json&,
                                                     const FaultContext&);

constexpr Named<FaultFactory> kFaultModels[] = {
    {"random", make_random},
    {"profiled", make_profiled},
    {"ecc", make_ecc},
    {"linf", make_linf},
    {"adversarial", make_adversarial},
};

}  // namespace

std::unique_ptr<FaultModel> make_fault_model(const std::string& name,
                                             const Json& params,
                                             const FaultContext& ctx) {
  return lookup<kFaultModels>("fault model", name)(params, ctx);
}

const std::vector<std::string>& fault_model_names() {
  return names_of<kFaultModels>();
}

// --------------------------------------------------- name <-> enum mappings --

namespace {

constexpr Named<Arch> kArchs[] = {
    {"simplenet", Arch::kSimpleNet},
    {"resnet", Arch::kResNetSmall},
    {"mlp", Arch::kMlp},
};

constexpr Named<NormKind> kNorms[] = {
    {"groupnorm", NormKind::kGroupNorm},
    {"batchnorm", NormKind::kBatchNorm},
    {"none", NormKind::kNone},
    {"gn", NormKind::kGroupNorm, /*alias=*/true},
    {"bn", NormKind::kBatchNorm, /*alias=*/true},
};

constexpr Named<Method> kMethods[] = {
    {"normal", Method::kNormal},
    {"clipping", Method::kClipping},
    {"randbet", Method::kRandBET},
    {"pattbet", Method::kPattBET},
};

constexpr Named<SyntheticConfig (*)()> kDatasets[] = {
    {"c10", SyntheticConfig::cifar10},
    {"mnist", SyntheticConfig::mnist},
    {"c100", SyntheticConfig::cifar100},
};

constexpr Named<QuantScheme (*)(int)> kQuantSchemes[] = {
    {"normal", QuantScheme::normal},
    {"rquant", QuantScheme::rquant},
    {"global_symmetric", QuantScheme::global_symmetric},
    {"rquant_trunc", QuantScheme::rquant_trunc},
    {"symmetric_rounded", QuantScheme::symmetric_rounded},
};

}  // namespace

Arch arch_by_name(const std::string& name) {
  return lookup<kArchs>("arch", name);
}

NormKind norm_by_name(const std::string& name) {
  return lookup<kNorms>("norm", name);
}

Method method_by_name(const std::string& name) {
  return lookup<kMethods>("training method", name);
}

SyntheticConfig dataset_by_name(const std::string& name) {
  return lookup<kDatasets>("dataset", name)();
}

QuantScheme quant_scheme_by_name(const std::string& name, int bits) {
  return lookup<kQuantSchemes>("quant scheme", name)(bits);
}

const std::vector<std::string>& arch_names() { return names_of<kArchs>(); }
const std::vector<std::string>& norm_names() { return names_of<kNorms>(); }
const std::vector<std::string>& method_names() { return names_of<kMethods>(); }
const std::vector<std::string>& dataset_names() {
  return names_of<kDatasets>();
}
const std::vector<std::string>& quant_scheme_names() {
  return names_of<kQuantSchemes>();
}

const char* arch_to_name(Arch arch) { return name_of<kArchs>(arch); }
const char* norm_to_name(NormKind norm) { return name_of<kNorms>(norm); }
const char* method_to_name(Method method) { return name_of<kMethods>(method); }

const char* quant_scheme_to_name(const QuantScheme& scheme) {
  for (const auto& row : kQuantSchemes) {
    if (scheme == row.value(scheme.bits)) return row.name;
  }
  return "";
}

QuantScheme quant_from_json(const Json& params, const std::string& where) {
  ParamReader p(where, params);
  const int bits = static_cast<int>(p.integer("bits", 8));
  if (bits < 2 || bits > 16) p.fail("\"bits\" must be in [2, 16]");
  QuantScheme scheme = quant_scheme_by_name(p.str("scheme", "rquant"), bits);
  // Explicit axis overrides for schemes outside the named presets (the
  // Tab. 1 "+asymmetric" / "+unsigned" ablation rows).
  if (p.has("scope")) {
    const std::string scope = p.str("scope", "");
    if (scope == "global") scheme.scope = RangeScope::kGlobal;
    else if (scope == "per_tensor") scheme.scope = RangeScope::kPerTensor;
    else p.fail("\"scope\" must be \"global\" or \"per_tensor\"");
  }
  scheme.asymmetric = p.boolean("asymmetric", scheme.asymmetric);
  scheme.unsigned_codes = p.boolean("unsigned", scheme.unsigned_codes);
  scheme.rounded = p.boolean("rounded", scheme.rounded);
  p.finish();
  return scheme;
}

Json quant_to_json(const QuantScheme& scheme) {
  Json j = Json::object();
  const char* name = quant_scheme_to_name(scheme);
  if (name[0] != '\0') {
    j.set("scheme", name);
    j.set("bits", scheme.bits);
    return j;
  }
  // Unnamed scheme: emit the named base it diverges least from plus the
  // explicit axes (parse applies overrides on top of the base).
  j.set("scheme", "normal");
  j.set("bits", scheme.bits);
  j.set("scope", scheme.scope == RangeScope::kGlobal ? "global" : "per_tensor");
  j.set("asymmetric", scheme.asymmetric);
  j.set("unsigned", scheme.unsigned_codes);
  j.set("rounded", scheme.rounded);
  return j;
}

}  // namespace ber::api
