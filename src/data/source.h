// Dataset sources: the name map behind DatasetSection.source.
//
// A source says WHERE records come from (synthetic | idx | cifar10 | shard);
// the dataset name/preset says what they look like. load_split() is the one
// funnel every consumer uses — Runner, zoo, ber_data — so file-backed and
// procedural data flow through identical code. A shard split is mapped
// read-only and copied into RAM by ShardReader::to_dataset (data/shard.h).
#pragma once

#include <string>
#include <vector>

#include "core/json.h"
#include "data/dataset.h"
#include "data/shapes.h"

namespace ber::data {

// Everything needed to load one dataset: the source kind, the root
// directory for file-backed sources, and the synthetic config — whose
// n_train/n_test double as per-split record caps for file-backed sources
// (0 = all records on disk).
struct SourceSpec {
  std::string source = "synthetic";
  std::string path;
  SyntheticConfig synthetic;
};

// The accepted source names, in registry order: synthetic, idx, cifar10,
// shard. The single source of truth dataset_from_json validates against.
const std::vector<std::string>& dataset_source_names();
bool known_dataset_source(const std::string& source);

// Throws std::invalid_argument listing the accepted names ("<where>:
// unknown dataset source \"x\" (known: synthetic idx cifar10 shard)").
void check_dataset_source(const std::string& source, const std::string& where);

// Parse-time geometry defaults per source (model sections infer
// in_channels/image_size/num_classes from these): idx = 1x28x28/10,
// cifar10 = 3x32x32/10. Shard geometry lives in the shard header, which
// must not be read at parse time (configs parse without data files), so
// "shard" returns zeros — shard-backed model sections spell geometry out.
SyntheticConfig source_geometry(const std::string& source);

// The files a split expects under `path` (empty for synthetic) — shared by
// the loader, ber_data and `ber_run --list datasets`.
std::vector<std::string> split_files(const std::string& source,
                                     const std::string& path, bool train);

// Human-readable expected on-disk layout per source (ber_run --list).
Json source_layouts();

// Loads one split through the source funnel. File-backed sources throw
// data::DataError on missing/corrupt files; unknown sources throw
// std::invalid_argument listing the accepted names.
Dataset load_split(const SourceSpec& spec, bool train);

// Canonical store key for (spec, split) — split is "train" or "test".
// Derived subsets append suffixes to these keys (e.g. "<key>/head500").
std::string dataset_key(const SourceSpec& spec, const std::string& split);

}  // namespace ber::data
