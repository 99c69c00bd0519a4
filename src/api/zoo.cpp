#include "api/zoo.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "api/registry.h"
#include "core/env.h"
#include "core/parallel.h"
#include "core/table.h"
#include "data/io.h"
#include "data/source.h"
#include "data/store.h"
#include "kernels/backend.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"

namespace ber::zoo {

namespace {

// The dataset section {"dataset": {"name": tag}} parses to.
api::DatasetSection section(const std::string& tag) {
  api::DatasetSection d;
  d.name = tag;
  d.config = api::dataset_by_name(tag);
  return d;
}

ModelConfig model_for(const std::string& tag) {
  ModelConfig mc;
  const SyntheticConfig dc = api::dataset_by_name(tag);
  mc.in_channels = dc.channels;
  mc.image_size = dc.image_size;
  mc.num_classes = dc.num_classes;
  return mc;
}

TrainConfig base_train(const std::string& tag) {
  TrainConfig tc;
  tc.batch_size = 50;
  tc.lr_warmup_epochs = 3;  // the small GN CNNs need it (see DESIGN.md)
  if (tag == "mnist") {
    tc.epochs = fast_mode() ? 3 : 12;
    tc.lr_warmup_epochs = 2;
  } else {
    tc.epochs = fast_mode() ? 4 : 25;
  }
  if (tag == "c100") tc.bit_error_loss_threshold = 3.0f;
  return tc;
}

// Shorthand builder for the recipe table.
api::ModelEntry make(const std::string& name, const std::string& tag,
                     Method method, QuantScheme quant, float wmax,
                     double p_train, const std::string& label) {
  api::ModelEntry s;
  s.name = name;
  s.label = label;
  s.dataset = section(tag);
  s.model = model_for(tag);
  s.quant = quant;
  s.train = base_train(tag);
  s.train.method = method;
  s.train.quant = quant;
  s.train.wmax = wmax;
  s.train.p_train = p_train;
  if (quant.bits <= 4) {
    // Low-precision QAT needs a gentler schedule at this model scale.
    s.train.sgd.lr = 0.03f;
    s.train.lr_warmup_epochs = 6;
  }
  return s;
}

std::vector<api::ModelEntry> build_specs() {
  std::vector<api::ModelEntry> v;
  const QuantScheme rq8 = QuantScheme::rquant(8);
  const QuantScheme rq4 = QuantScheme::rquant(4);

  // --- Tab. 1 quantization-scheme ablation (each scheme trained with QAT).
  v.push_back(make("c10_global", "c10", Method::kNormal,
                   QuantScheme::global_symmetric(8), 0, 0, "Eq.(1), global"));
  v.push_back(make("c10_normal", "c10", Method::kNormal, QuantScheme::normal(8),
                   0, 0, "Eq.(1), per-layer (=Normal)"));
  v.push_back(make("c10_asym_signed", "c10", Method::kNormal,
                   QuantScheme{8, RangeScope::kPerTensor, true, false, false},
                   0, 0, "+asymmetric"));
  v.push_back(make("c10_asym_unsigned", "c10", Method::kNormal,
                   QuantScheme{8, RangeScope::kPerTensor, true, true, false},
                   0, 0, "+unsigned"));
  v.push_back(make("c10_rquant", "c10", Method::kNormal, rq8, 0, 0,
                   "+rounding (=RQuant)"));
  v.push_back(make("c10_clip015_m4_trunc", "c10", Method::kClipping,
                   QuantScheme::rquant_trunc(4), 0.15f, 0,
                   "4-bit w/o rounding*"));
  v.push_back(make("c10_clip015_m4", "c10", Method::kClipping, rq4, 0.15f, 0,
                   "4-bit w/ rounding*"));

  // --- Tab. 2 / Fig. 2/6/7 clipping sweep (+ label smoothing controls).
  // The wmax grid is shifted up vs the paper's {0.15..0.025}: our scaled-down
  // nets have a 48-wide head, so their natural weight scale is larger; the
  // sweep spans the same regimes (harmless -> effective -> too aggressive).
  for (float wmax : {0.3f, 0.2f, 0.15f, 0.1f}) {
    auto s = make("c10_clip" + std::to_string(static_cast<int>(wmax * 1000)),
                  "c10", Method::kClipping, rq8, wmax, 0,
                  "Clipping_" + TablePrinter::fmt(wmax, 2));
    v.push_back(std::move(s));
  }
  for (float wmax : {0.2f, 0.15f}) {
    auto s = make(
        "c10_clip" + std::to_string(static_cast<int>(wmax * 1000)) + "_ls",
        "c10", Method::kClipping, rq8, wmax, 0,
        "Clipping_" + TablePrinter::fmt(wmax, 2) + "+LS");
    s.train.label_smoothing = 0.1f;
    v.push_back(std::move(s));
  }

  // --- Tab. 4 / Fig. 2/7 RandBET.
  v.push_back(make("c10_randbet015_p1", "c10", Method::kRandBET, rq8, 0.15f,
                   0.01, "RandBET_0.15 p=1"));
  v.push_back(make("c10_randbet01_p15", "c10", Method::kRandBET, rq8, 0.1f,
                   0.015, "RandBET_0.1 p=1.5"));
  v.push_back(make("c10_randbet_noclip_p1", "c10", Method::kRandBET, rq8, 0,
                   0.01, "RandBET w/o clipping p=1"));
  v.push_back(make("c10_randbet015_p1_m4", "c10", Method::kRandBET, rq4, 0.15f,
                   0.01, "RandBET_0.15 p=1 (4-bit)"));

  // --- Tab. 3 PattBET (fixed-pattern training).
  v.push_back(make("c10_pattbet_p25", "c10", Method::kPattBET, rq8, 0, 0.025,
                   "PattBET p=2.5"));
  v.push_back(make("c10_pattbet015_p25", "c10", Method::kPattBET, rq8, 0.15f,
                   0.025, "PattBET_0.15 p=2.5"));

  // --- Tab. 10 BatchNorm comparison.
  {
    auto s = make("c10_rquant_bn", "c10", Method::kNormal, rq8, 0, 0,
                  "BN RQuant");
    s.model.norm = NormKind::kBatchNorm;
    v.push_back(std::move(s));
    auto c = make("c10_clip015_bn", "c10", Method::kClipping, rq8, 0.15f, 0,
                  "BN Clipping_0.15");
    c.model.norm = NormKind::kBatchNorm;
    v.push_back(std::move(c));
  }

  // --- Tab. 14 ResNet.
  for (const auto& [suffix, method, wmax, p, label] :
       std::vector<std::tuple<std::string, Method, float, double, std::string>>{
           {"rquant", Method::kNormal, 0.0f, 0.0, "ResNet RQuant"},
           {"clip015", Method::kClipping, 0.15f, 0.0, "ResNet Clipping_0.15"},
           {"randbet015_p1", Method::kRandBET, 0.15f, 0.01,
            "ResNet RandBET_0.15 p=1"}}) {
    auto s = make("c10_resnet_" + suffix, "c10", method, rq8, wmax, p, label);
    s.model.arch = Arch::kResNetSmall;
    v.push_back(std::move(s));
  }

  // --- Tab. 9 post-training quantization (no QAT).
  {
    auto s = make("c10_noqat", "c10", Method::kNormal, rq8, 0, 0,
                  "RQuant (post-train)");
    s.train.quant_aware = false;
    v.push_back(std::move(s));
    auto c = make("c10_noqat_clip015", "c10", Method::kClipping, rq8, 0.15f, 0,
                  "Clipping_0.15 (post-train)");
    c.train.quant_aware = false;
    v.push_back(std::move(c));
  }

  // --- Tab. 12 symmetric quantization.
  v.push_back(make("c10_clip015_sym", "c10", Method::kClipping,
                   QuantScheme::symmetric_rounded(8), 0.15f, 0,
                   "Clipping_0.15 (sym)"));
  v.push_back(make("c10_randbet015_p1_sym", "c10", Method::kRandBET,
                   QuantScheme::symmetric_rounded(8), 0.15f, 0.01,
                   "RandBET_0.15 p=1 (sym)"));

  // --- Tab. 13 RandBET variants.
  {
    auto s = make("c10_randbet015_p1_curr", "c10", Method::kRandBET, rq8,
                  0.15f, 0.01, "Curr. RandBET_0.15 p=1");
    s.train.curricular = true;
    v.push_back(std::move(s));
    auto a = make("c10_randbet015_p1_alt", "c10", Method::kRandBET, rq8, 0.15f,
                  0.01, "Alt. RandBET_0.15 p=1");
    a.train.alternating = true;
    v.push_back(std::move(a));
  }

  // --- MNIST-analog (Fig. 7 / Tab. 21): much higher tolerable rates.
  v.push_back(make("mnist_rquant", "mnist", Method::kNormal, rq8, 0, 0,
                   "RQuant"));
  v.push_back(make("mnist_clip01", "mnist", Method::kClipping, rq8, 0.1f, 0,
                   "Clipping_0.1"));
  v.push_back(make("mnist_randbet01_p5", "mnist", Method::kRandBET, rq8, 0.1f,
                   0.05, "RandBET_0.1 p=5"));
  v.push_back(make("mnist_randbet01_p10", "mnist", Method::kRandBET, rq8,
                   0.1f, 0.10, "RandBET_0.1 p=10"));
  v.push_back(make("mnist_randbet01_p5_m2", "mnist", Method::kRandBET,
                   QuantScheme::rquant(2), 0.1f, 0.05,
                   "RandBET_0.1 p=5 (2-bit)"));

  // --- CIFAR100-analog (Fig. 7 / Tab. 20).
  v.push_back(make("c100_rquant", "c100", Method::kNormal, rq8, 0, 0,
                   "RQuant"));
  v.push_back(make("c100_clip015", "c100", Method::kClipping, rq8, 0.15f, 0,
                   "Clipping_0.15"));
  v.push_back(make("c100_randbet015_p05", "c100", Method::kRandBET, rq8,
                   0.15f, 0.005, "RandBET_0.15 p=0.5"));
  return v;
}

}  // namespace

const std::vector<api::ModelEntry>& all_specs() {
  static const std::vector<api::ModelEntry> specs = build_specs();
  return specs;
}

const api::ModelEntry& spec(const std::string& name) {
  for (const api::ModelEntry& s : all_specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("zoo: unknown model " + name);
}

std::string checkpoint_path(const api::ModelEntry& entry) {
  api::ModelEntry hashed = entry;
  hashed.label.clear();
  const std::string text = api::model_entry_to_json(hashed).dump();
  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(data::fnv1a(
                    reinterpret_cast<const unsigned char*>(text.data()),
                    text.size())));
  return artifacts_dir() + "/" + entry.name + "_" + fp + ".ckpt";
}

std::unique_ptr<Sequential> load_or_train(const api::ModelEntry& entry) {
  const std::string path = entry.name.empty() ? "" : checkpoint_path(entry);
  if (!path.empty() && file_exists(path)) {
    // The fingerprint covers the recipe, but stay defensive about stale or
    // hand-edited artifacts: a mismatched stored scheme, or a truncated /
    // corrupt file, retrains.
    auto model = build_model(entry.model);
    try {
      if (load_checkpoint(path, *model) == entry.quant) return model;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[zoo] unreadable checkpoint, retraining: %s\n",
                   e.what());
    }
  }
  // The training scheme is always the entry's quant section (C++-filled
  // entries may leave train.quant at its default). Training pins the
  // reference backend so a cached artifact never depends on which backend
  // the surrounding process runs.
  TrainConfig tc = entry.train;
  tc.quant = entry.quant;
  const kernels::ScopedBackend guard(kernels::backend("reference"));
  BER_TRACE_SCOPE("zoo", "train");
  auto model = build_model(entry.model);
  const TrainStats stats = train(*model, dataset(entry.dataset, "train"),
                                 dataset(entry.dataset, "test"), tc);
  if (!path.empty()) {
    ensure_dir(artifacts_dir());
    save_checkpoint(path, *model, entry.quant);
  }
  std::fprintf(stderr, "[zoo] trained %-28s Err %.2f%%\n",
               entry.name.empty() ? "(unnamed)" : entry.name.c_str(),
               100.0 * stats.final_test_err);
  return model;
}

const Dataset& dataset(const api::DatasetSection& section,
                       const std::string& split) {
  const data::SourceSpec src{section.source, section.path, section.config};
  if (split == "rerr") {
    // Derived from test: materialize the parent first (store builders must
    // not recurse into the store).
    const Dataset& test = dataset(section, "test");
    const long n = std::min<long>(fast_mode() ? 200 : 500, test.size());
    return data::dataset_store().get(
        data::dataset_key(src, "test") + "/head" + std::to_string(n),
        [&] { return test.head(n); });
  }
  if (split != "train" && split != "test") {
    throw std::invalid_argument("zoo::dataset: unknown split \"" + split +
                                "\" (train, test, rerr)");
  }
  return data::dataset_store().get(data::dataset_key(src, split), [&] {
    return data::load_split(src, split == "train");
  });
}

const Dataset& train_set(const std::string& tag) {
  return dataset(section(tag), "train");
}
const Dataset& test_set(const std::string& tag) {
  return dataset(section(tag), "test");
}
const Dataset& rerr_set(const std::string& tag) {
  return dataset(section(tag), "rerr");
}

int default_chips() { return fast_mode() ? 2 : 5; }

Sequential& get(const std::string& name) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<Sequential>> cache;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(name);
    if (it != cache.end()) return *it->second;
  }
  auto model = load_or_train(spec(name));
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = cache.emplace(name, std::move(model));
  return *it->second;
}

void ensure(const std::vector<std::string>& names) {
  std::vector<const api::ModelEntry*> missing;
  for (const auto& n : names) {
    const api::ModelEntry& s = spec(n);
    if (!file_exists(checkpoint_path(s))) missing.push_back(&s);
  }
  parallel_for(static_cast<std::int64_t>(missing.size()), 2,
               [&](std::int64_t i) { (void)load_or_train(*missing[i]); });
}

}  // namespace ber::zoo
