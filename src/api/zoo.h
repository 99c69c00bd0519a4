// The model zoo: the paper's training recipes as named api::ModelEntrys,
// and the one trained-model cache every named recipe shares.
//
// A zoo recipe is an ordinary ModelEntry whose `name` is the zoo key and
// whose `label` is the paper-style table row label. load_or_train() is the
// single place a recipe becomes weights: it loads the recipe's checkpoint
// (serve/checkpoint.h) when one exists and trains otherwise. The cache key
// is the name plus a fingerprint of the whole recipe, so editing any part
// of it (or BER_FAST changing the epochs) retrains instead of loading a
// stale artifact. The Runner resolves {"zoo": "<name>"} and inline model
// entries through the same call.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/spec.h"
#include "data/dataset.h"
#include "nn/sequential.h"

namespace ber::zoo {

// All registered recipes (the full experiment grid).
const std::vector<api::ModelEntry>& all_specs();
const api::ModelEntry& spec(const std::string& name);

// artifacts_dir()/<name>_<fp>.ckpt, fp = 16-hex FNV-1a of the entry's JSON
// with the display-only label cleared (relabeling keeps the cache).
std::string checkpoint_path(const api::ModelEntry& entry);

// The trained model for a recipe: loads checkpoint_path(entry) when it
// exists and stores entry.quant; otherwise (missing, corrupt or stale file)
// trains on the reference backend with the entry's quant as the training
// scheme. Only named entries write a checkpoint.
std::unique_ptr<Sequential> load_or_train(const api::ModelEntry& entry);

// A dataset section's split, materialized once in data::dataset_store():
// "train", "test", or "rerr" — the test split's head (500 examples; 200 in
// fast mode), the reduced subset RErr is averaged over.
const Dataset& dataset(const api::DatasetSection& section,
                       const std::string& split);

// load_or_train(spec(name)), memoized: the reference stays valid for the
// process lifetime. NOT thread-safe with concurrent get() of the same name
// — use ensure() to prefetch in parallel.
Sequential& get(const std::string& name);

// Trains any missing models among `names`, two at a time.
void ensure(const std::vector<std::string>& names);

// dataset() of a synthetic preset tag ("c10" | "mnist" | "c100").
const Dataset& train_set(const std::string& tag);
const Dataset& test_set(const std::string& tag);
const Dataset& rerr_set(const std::string& tag);

// Number of random-bit-error chips per RErr estimate (5; 2 in fast mode).
int default_chips();

}  // namespace ber::zoo
