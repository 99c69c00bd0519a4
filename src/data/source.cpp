#include "data/source.h"

#include <stdexcept>

#include "data/cifar.h"
#include "data/idx.h"
#include "data/shard.h"

namespace ber::data {

const std::vector<std::string>& dataset_source_names() {
  static const std::vector<std::string> names{"synthetic", "idx", "cifar10",
                                              "shard"};
  return names;
}

bool known_dataset_source(const std::string& source) {
  for (const std::string& n : dataset_source_names()) {
    if (n == source) return true;
  }
  return false;
}

void check_dataset_source(const std::string& source,
                          const std::string& where) {
  if (known_dataset_source(source)) return;
  std::string msg =
      where + ": unknown dataset source \"" + source + "\" (known:";
  for (const std::string& n : dataset_source_names()) msg += " " + n;
  throw std::invalid_argument(msg + ")");
}

SyntheticConfig source_geometry(const std::string& source) {
  SyntheticConfig c;
  c.n_train = 0;  // file-backed: 0 = every record on disk
  c.n_test = 0;
  c.seed = 0;
  if (source == "idx") {
    c.channels = 1;
    c.image_size = 28;
    c.num_classes = 10;
  } else if (source == "cifar10") {
    c.channels = 3;
    c.image_size = 32;
    c.num_classes = 10;
  } else {  // shard: geometry lives in the header, unknown until run time
    c.channels = 0;
    c.image_size = 0;
    c.num_classes = 0;
  }
  return c;
}

std::vector<std::string> split_files(const std::string& source,
                                     const std::string& path, bool train) {
  std::vector<std::string> files;
  if (source == "idx") {
    const std::string stem = train ? "train" : "t10k";
    files.push_back(path + "/" + stem + "-images-idx3-ubyte");
    files.push_back(path + "/" + stem + "-labels-idx1-ubyte");
  } else if (source == "cifar10") {
    if (train) {
      for (int i = 1; i <= 5; ++i) {
        files.push_back(path + "/data_batch_" + std::to_string(i) + ".bin");
      }
    } else {
      files.push_back(path + "/test_batch.bin");
    }
  } else if (source == "shard") {
    files.push_back(path + (train ? "/train.bers" : "/test.bers"));
  }
  return files;  // synthetic: no files
}

Json source_layouts() {
  Json j = Json::object();
  j.set("synthetic",
        "procedural shapes, no files; \"name\" picks the preset "
        "(c10 | mnist | c100)");
  j.set("idx",
        "path = dir with train-images-idx3-ubyte, train-labels-idx1-ubyte, "
        "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (MNIST layout)");
  j.set("cifar10",
        "path = dir with data_batch_1.bin .. data_batch_5.bin + "
        "test_batch.bin (CIFAR-10 binary version)");
  j.set("shard",
        "path = dir with train.bers + test.bers (pack with the ber_data "
        "tool); memory-mapped and copied into RAM");
  return j;
}

Dataset load_split(const SourceSpec& spec, bool train) {
  check_dataset_source(spec.source, "load_split");
  if (spec.source == "synthetic") {
    return make_synthetic(spec.synthetic, train);
  }
  const long cap = train ? spec.synthetic.n_train : spec.synthetic.n_test;
  if (spec.source == "shard") {
    return ShardReader(split_files("shard", spec.path, train).front())
        .to_dataset(cap);
  }
  Dataset d = spec.source == "idx"
                  ? load_idx_dir(spec.path, train)
                  : load_cifar10_dir(spec.path, train);
  if (cap > 0 && cap < d.size()) d = d.head(cap);
  return d;
}

std::string dataset_key(const SourceSpec& spec, const std::string& split) {
  if (spec.source == "synthetic") {
    // Key on the full content-determining config, not the preset name: two
    // presets (or a preset plus overrides) that generate identical data
    // share one materialization.
    const SyntheticConfig& c = spec.synthetic;
    return "synthetic/" + std::to_string(c.channels) + "x" +
           std::to_string(c.image_size) + "c" + std::to_string(c.num_classes) +
           "/" + std::to_string(c.n_train) + "_" + std::to_string(c.n_test) +
           "/s" + std::to_string(c.seed) + "/n" +
           std::to_string(c.noise_std) + "_j" + std::to_string(c.jitter) +
           "_" + std::to_string(c.scale_lo) + "-" +
           std::to_string(c.scale_hi) + "/" + split;
  }
  const long cap =
      split == "train" ? spec.synthetic.n_train : spec.synthetic.n_test;
  return spec.source + "/" + spec.path + "/cap" + std::to_string(cap) + "/" +
         split;
}

}  // namespace ber::data
