// Dataset subsystem tests (src/data/): golden-fixture parses for the IDX
// and CIFAR-10 readers, hardening against corrupt files, BERS shard
// round-trips, seeded byte mutations of every untrusted input format, and
// the end-to-end guarantee the whole subsystem exists for — a shard-sourced
// Runner report is bit-identical to the same records generated in memory.
//
// Fixture bytes are generated by tests/fixtures/make_fixtures.py; expected
// values here mirror that script — change one, change both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ber.h"

namespace fs = std::filesystem;
using namespace ber;

namespace {

fs::path fixtures() { return fs::path(BER_SOURCE_DIR) / "tests" / "fixtures"; }

// Fresh per-test scratch dir under the build tree's temp space.
fs::path scratch_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("ber_test_datasets_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<unsigned char> slurp(const fs::path& path) {
  return data::read_file(path.string());
}

void spit(const fs::path& path, const std::vector<unsigned char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------------- IDX ---

TEST(Idx, GoldenFixtureParses) {
  const Dataset train = data::load_idx_dir((fixtures() / "idx").string(), true);
  EXPECT_EQ(train.size(), 6);
  EXPECT_EQ(train.channels(), 1);
  EXPECT_EQ(train.height(), 5);
  EXPECT_EQ(train.width(), 4);
  EXPECT_EQ(train.num_classes, 3);
  EXPECT_EQ(train.labels, (std::vector<int>{0, 1, 2, 0, 1, 2}));
  // Pixel (i, r, c) byte is (37*i + 5*r + c) % 256, scaled by 1/255.
  for (const auto [i, r, c] : {std::array<long, 3>{0, 0, 0},
                               std::array<long, 3>{2, 3, 1},
                               std::array<long, 3>{5, 4, 3}}) {
    const float expect = static_cast<float>((37 * i + 5 * r + c) % 256) / 255.0f;
    EXPECT_FLOAT_EQ(train.images.data()[(i * 5 + r) * 4 + c], expect)
        << i << "," << r << "," << c;
  }

  const Dataset test = data::load_idx_dir((fixtures() / "idx").string(), false);
  EXPECT_EQ(test.size(), 3);
  EXPECT_EQ(test.labels, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(test.num_classes, 3);
}

TEST(Idx, RejectsCorruptFiles) {
  const fs::path dir = scratch_dir("idx");
  const fs::path src = fixtures() / "idx";
  const std::string images = (dir / "images").string();
  const std::string labels = (dir / "labels").string();
  const std::vector<unsigned char> good_images =
      slurp(src / "train-images-idx3-ubyte");
  const std::vector<unsigned char> good_labels =
      slurp(src / "train-labels-idx1-ubyte");

  // Baseline: the copies parse.
  spit(images, good_images);
  spit(labels, good_labels);
  EXPECT_NO_THROW(data::load_idx(images, labels));

  // Bad image magic.
  auto bad = good_images;
  bad[2] = 0x07;
  spit(images, bad);
  EXPECT_THROW(data::load_idx(images, labels), data::DataError);

  // Truncated image payload.
  bad = good_images;
  bad.resize(bad.size() - 1);
  spit(images, bad);
  EXPECT_THROW(data::load_idx(images, labels), data::DataError);

  // Trailing garbage is a size lie too.
  bad = good_images;
  bad.push_back(0);
  spit(images, bad);
  EXPECT_THROW(data::load_idx(images, labels), data::DataError);

  // Label/image count mismatch (header says 5 labels, images say 6) —
  // with the label payload resized to match its own header, so only the
  // cross-file check can catch it.
  spit(images, good_images);
  bad = good_labels;
  bad[7] = 5;
  bad.resize(bad.size() - 1);
  spit(labels, bad);
  EXPECT_THROW(data::load_idx(images, labels), data::DataError);

  // Bad label magic.
  bad = good_labels;
  bad[3] = 0x03;
  spit(labels, bad);
  EXPECT_THROW(data::load_idx(images, labels), data::DataError);

  // Missing file.
  EXPECT_THROW(data::load_idx((dir / "nope").string(), labels),
               data::DataError);
  fs::remove_all(dir);
}

// -------------------------------------------------------------- CIFAR-10 ---

TEST(Cifar10, GoldenFixtureParses) {
  const fs::path dir = fixtures() / "cifar10";
  const Dataset train = data::load_cifar10_dir(dir.string(), true);
  EXPECT_EQ(train.size(), 10);  // 5 batch files x 2 records
  EXPECT_EQ(train.channels(), 3);
  EXPECT_EQ(train.height(), 32);
  EXPECT_EQ(train.width(), 32);
  EXPECT_EQ(train.num_classes, 10);
  // Record k has label k % 10 and pixel byte (k*7 + j) % 256 at payload
  // offset j — already channel-planar, i.e. exactly our NCHW order.
  for (long k = 0; k < 10; ++k) EXPECT_EQ(train.labels[k], k % 10);
  for (const auto [k, j] : {std::array<long, 2>{0, 0},
                            std::array<long, 2>{3, 1024},
                            std::array<long, 2>{9, 3071}}) {
    const float expect = static_cast<float>((k * 7 + j) % 256) / 255.0f;
    EXPECT_FLOAT_EQ(train.images.data()[k * 3072 + j], expect) << k << "," << j;
  }

  const Dataset test = data::load_cifar10_dir(dir.string(), false);
  EXPECT_EQ(test.size(), 2);
  EXPECT_EQ(test.labels, (std::vector<int>{0, 1}));  // k = 10, 11 mod 10
}

TEST(Cifar10, RejectsCorruptFiles) {
  const fs::path dir = scratch_dir("cifar");
  const std::string batch = (dir / "batch.bin").string();
  const std::vector<unsigned char> good =
      slurp(fixtures() / "cifar10" / "test_batch.bin");

  spit(batch, good);
  EXPECT_NO_THROW(data::load_cifar10({batch}));

  // Not a whole number of 3073-byte records.
  auto bad = good;
  bad.resize(bad.size() - 10);
  spit(batch, bad);
  EXPECT_THROW(data::load_cifar10({batch}), data::DataError);

  // Empty file.
  spit(batch, {});
  EXPECT_THROW(data::load_cifar10({batch}), data::DataError);

  // Label byte out of [0, 9] (second record's label).
  bad = good;
  bad[static_cast<std::size_t>(data::kCifarRecordBytes)] = 10;
  spit(batch, bad);
  EXPECT_THROW(data::load_cifar10({batch}), data::DataError);
  fs::remove_all(dir);
}

// ------------------------------------------------------------ BERS shard ---

TEST(Shard, RoundTripIsByteExact) {
  const fs::path dir = scratch_dir("shard");
  const std::string path = (dir / "round.bers").string();
  SyntheticConfig cfg = SyntheticConfig::mnist();
  cfg.n_train = 40;
  const Dataset d = make_synthetic(cfg, /*train=*/true);

  data::write_shard(path, d);
  const data::ShardHeader h = data::read_shard_header(path);
  EXPECT_EQ(static_cast<long>(h.count), d.size());
  EXPECT_EQ(static_cast<long>(h.channels), d.channels());
  EXPECT_EQ(static_cast<long>(h.height), d.height());
  EXPECT_EQ(static_cast<long>(h.width), d.width());
  EXPECT_EQ(static_cast<int>(h.num_classes), d.num_classes);

  data::ShardReader reader(path);
  const Dataset back = reader.to_dataset();
  ASSERT_EQ(back.size(), d.size());
  EXPECT_EQ(back.labels, d.labels);
  EXPECT_EQ(back.num_classes, d.num_classes);
  ASSERT_EQ(back.images.numel(), d.images.numel());
  EXPECT_EQ(std::memcmp(back.images.data(), d.images.data(),
                        sizeof(float) * static_cast<std::size_t>(
                                            d.images.numel())),
            0);
  // Zero-copy accessors agree with the materialized view.
  EXPECT_EQ(reader.label(7), d.labels[7]);
  EXPECT_EQ(std::memcmp(reader.image(7), d.images.data() + 7 * h.pixels(),
                        sizeof(float) * static_cast<std::size_t>(h.pixels())),
            0);
  fs::remove_all(dir);
}

TEST(Shard, OpenValidationCatchesCorruption) {
  const fs::path dir = scratch_dir("shard_bad");
  const std::string good_path = (dir / "good.bers").string();
  SyntheticConfig cfg = SyntheticConfig::mnist();
  cfg.n_train = 8;
  data::write_shard(good_path, make_synthetic(cfg, true));
  const std::vector<unsigned char> good = slurp(good_path);
  const std::string path = (dir / "bad.bers").string();

  // Bad magic.
  auto bad = good;
  bad[0] = 'X';
  spit(path, bad);
  EXPECT_THROW(data::read_shard_header(path), data::DataError);
  EXPECT_THROW(data::ShardReader{path}, data::DataError);

  // Unsupported version.
  bad = good;
  bad[4] = 99;
  spit(path, bad);
  EXPECT_THROW(data::read_shard_header(path), data::DataError);

  // Truncated payload (size no longer matches the promised count).
  bad = good;
  bad.resize(bad.size() - 4);
  spit(path, bad);
  EXPECT_THROW(data::read_shard_header(path), data::DataError);
  EXPECT_THROW(data::ShardReader{path}, data::DataError);

  // A flipped payload byte passes the size math but fails the checksum...
  bad = good;
  bad[static_cast<std::size_t>(data::kShardHeaderBytes) + 5] ^= 0x40;
  spit(path, bad);
  EXPECT_THROW(data::ShardReader{path}, data::DataError);
  // ...and verify_checksum=false documents the escape hatch.
  EXPECT_NO_THROW((data::ShardReader(path, /*verify_checksum=*/false)));

  // An abandoned writer (no close()) leaves an unreadable shard.
  const std::string orphan = (dir / "orphan.bers").string();
  {
    data::ShardWriter w(orphan, cfg.channels, cfg.image_size, cfg.image_size,
                        cfg.num_classes);
    std::vector<float> img(static_cast<std::size_t>(cfg.channels) *
                               cfg.image_size * cfg.image_size,
                           0.5f);
    w.add(1, img.data());
  }
  EXPECT_THROW(data::read_shard_header(orphan), data::DataError);
  fs::remove_all(dir);
}

// -------------------------------------------------------------- mutation ---

// Seeded byte mutations of a known-good input: one to three edits (a bit
// flip, a random byte, or a 4-byte word in the first 64 bytes, where counts
// and dimensions live, set to all 0x00, 0x7f or 0xff bytes), then a
// truncation one time in eight.
std::vector<unsigned char> mutate(std::vector<unsigned char> bytes, Rng& rng) {
  const int size = static_cast<int>(bytes.size());
  const int edits = rng.uniform_int(1, 3);
  for (int e = 0; e < edits; ++e) {
    const int at = rng.uniform_int(0, size - 1);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        bytes[at] ^= static_cast<unsigned char>(1u << rng.uniform_int(0, 7));
        break;
      case 1:
        bytes[at] = static_cast<unsigned char>(rng.uniform_int(0, 255));
        break;
      default: {
        const int word = rng.uniform_int(0, std::min(size, 64) / 4 - 1) * 4;
        const unsigned char fills[3] = {0x00, 0x7f, 0xff};
        std::memset(bytes.data() + word, fills[rng.uniform_int(0, 2)], 4);
      }
    }
  }
  if (rng.uniform_int(0, 7) == 0) {
    bytes.resize(static_cast<std::size_t>(rng.uniform_int(0, size - 1)));
  }
  return bytes;
}

// Feeds `trials` mutations of `good` to `load`. Each must load or throw a
// std::exception; any other exception fails, and a crash or sanitizer
// report takes the whole test down.
template <class Load>
void expect_mutations_load_or_throw(const std::string& what,
                                    const std::vector<unsigned char>& good,
                                    std::uint64_t seed, int trials,
                                    const Load& load) {
  ASSERT_GE(good.size(), 4u) << what;
  Rng rng(seed);
  int threw = 0;
  for (int t = 0; t < trials; ++t) {
    try {
      load(mutate(good, rng));
    } catch (const std::exception&) {
      ++threw;
    } catch (...) {
      ADD_FAILURE() << what << " mutation " << t
                    << " threw a non-std::exception";
    }
  }
  // The validators must catch at least some of the damage.
  EXPECT_GT(threw, 0) << what;
}

TEST(Mutation, UntrustedInputsLoadOrThrow) {
  const fs::path dir = scratch_dir("mutation");
  const fs::path file = dir / "mutated";
  const int kTrials = 48;  // x 6 inputs: 288 mutated loads

  // IDX: mutate the images and labels files one at a time.
  const fs::path idx = fixtures() / "idx";
  const std::vector<unsigned char> idx_images =
      slurp(idx / "train-images-idx3-ubyte");
  const std::vector<unsigned char> idx_labels =
      slurp(idx / "train-labels-idx1-ubyte");
  const fs::path images = dir / "images";
  const fs::path labels = dir / "labels";
  spit(labels, idx_labels);
  expect_mutations_load_or_throw(
      "idx images", idx_images, 1, kTrials, [&](const auto& bytes) {
        spit(images, bytes);
        data::load_idx(images.string(), labels.string());
      });
  spit(images, idx_images);
  expect_mutations_load_or_throw(
      "idx labels", idx_labels, 2, kTrials, [&](const auto& bytes) {
        spit(labels, bytes);
        data::load_idx(images.string(), labels.string());
      });

  // CIFAR-10 binary batch.
  expect_mutations_load_or_throw(
      "cifar10", slurp(fixtures() / "cifar10" / "test_batch.bin"), 3,
      kTrials, [&](const auto& bytes) {
        spit(file, bytes);
        data::load_cifar10({file.string()});
      });

  // A small BERS shard, through the load_split funnel.
  SyntheticConfig cfg = SyntheticConfig::mnist();
  cfg.n_train = 6;
  data::write_shard(file.string(), make_synthetic(cfg, true));
  const std::vector<unsigned char> shard = slurp(file);
  data::SourceSpec spec;
  spec.source = "shard";
  spec.path = dir.string();
  spec.synthetic = data::source_geometry("shard");
  expect_mutations_load_or_throw(
      "shard", shard, 4, kTrials, [&](const auto& bytes) {
        spit(dir / "train.bers", bytes);
        data::load_split(spec, true);
      });

  // Spec text.
  expect_mutations_load_or_throw(
      "smoke_sweep.json",
      slurp(fs::path(BER_SOURCE_DIR) / "configs" / "smoke_sweep.json"), 5,
      kTrials, [](const auto& bytes) {
        api::ExperimentSpec::from_json(
            Json::parse(std::string(bytes.begin(), bytes.end())));
      });

  // Deployment checkpoint of a tiny MLP.
  ModelConfig mc;
  mc.arch = Arch::kMlp;
  mc.in_channels = 1;
  mc.width = 4;
  save_checkpoint(file.string(), *build_model(mc), QuantScheme::rquant(8));
  expect_mutations_load_or_throw(
      "checkpoint", slurp(file), 6, kTrials, [&](const auto& bytes) {
        spit(file, bytes);
        load_checkpoint(file.string(), *build_model(mc));
      });
  fs::remove_all(dir);
}

// ------------------------------------------------- sources + store + e2e ---

TEST(Source, LoadSplitSyntheticMatchesMakeSynthetic) {
  data::SourceSpec spec;
  spec.synthetic = SyntheticConfig::mnist();
  spec.synthetic.n_train = 30;
  spec.synthetic.n_test = 12;
  const Dataset via_source = data::load_split(spec, true);
  const Dataset direct = make_synthetic(spec.synthetic, true);
  EXPECT_EQ(via_source.labels, direct.labels);
  EXPECT_EQ(std::memcmp(via_source.images.data(), direct.images.data(),
                        sizeof(float) * static_cast<std::size_t>(
                                            direct.images.numel())),
            0);

  data::SourceSpec bogus;
  bogus.source = "tfrecord";
  EXPECT_THROW(data::load_split(bogus, true), std::invalid_argument);
}

TEST(Source, ShardSplitCapMatchesToDataset) {
  const fs::path dir = scratch_dir("source_shard");
  SyntheticConfig cfg = SyntheticConfig::mnist();
  cfg.n_train = 50;
  cfg.n_test = 20;
  data::write_shard((dir / "train.bers").string(), make_synthetic(cfg, true));
  data::write_shard((dir / "test.bers").string(), make_synthetic(cfg, false));

  data::SourceSpec spec;
  spec.source = "shard";
  spec.path = dir.string();
  spec.synthetic = data::source_geometry("shard");
  spec.synthetic.n_train = 32;  // cap: first 32 records only

  const Dataset capped = data::load_split(spec, true);
  const Dataset head =
      data::ShardReader((dir / "train.bers").string()).to_dataset(32);
  ASSERT_EQ(capped.size(), 32);
  ASSERT_EQ(head.size(), 32);
  EXPECT_EQ(capped.num_classes, head.num_classes);
  EXPECT_EQ(capped.labels, head.labels);
  EXPECT_EQ(std::memcmp(capped.images.data(), head.images.data(),
                        sizeof(float) * static_cast<std::size_t>(
                                            head.images.numel())),
            0);
  // The cap sliced the train split only: the full test split still loads.
  EXPECT_EQ(data::load_split(spec, false).size(), 20);
  fs::remove_all(dir);
}

TEST(Store, BuildsOnceAndSharesAcrossConsumers) {
  int builds = 0;
  const auto build = [&] {
    ++builds;
    SyntheticConfig cfg = SyntheticConfig::mnist();
    cfg.n_train = 5;
    return make_synthetic(cfg, true);
  };
  const std::string key = "test/store/builds_once";
  const Dataset& a = data::dataset_store().get(key, build);
  const Dataset& b = data::dataset_store().get(key, build);
  EXPECT_EQ(&a, &b);  // stable node, one materialization
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(data::dataset_store().contains(key));

  // The zoo's datasets live in the same store under canonical keys.
  const Dataset& zoo_train = zoo::train_set("mnist");
  data::SourceSpec spec;
  spec.synthetic = SyntheticConfig::mnist();
  const Dataset& stored = data::dataset_store().get(
      data::dataset_key(spec, "train"),
      [] { return Dataset{}; });  // must hit, never build
  EXPECT_EQ(&zoo_train, &stored);
}

// The acceptance test: one tiny Runner spec fed from a shard produces a
// report bit-identical to the same records generated in memory (synthetic
// source). "metrics" is the only section allowed to differ (it snapshots
// cumulative process counters).
TEST(EndToEnd, ShardSourcedReportMatchesSynthetic) {
  const fs::path dir = scratch_dir("e2e");
  SyntheticConfig cfg = SyntheticConfig::mnist();
  cfg.n_train = 120;
  cfg.n_test = 60;
  data::write_shard((dir / "train.bers").string(), make_synthetic(cfg, true));
  data::write_shard((dir / "test.bers").string(), make_synthetic(cfg, false));

  const auto spec_json = [&](bool shard) {
    const std::string dataset =
        shard ? "{\"source\": \"shard\", \"path\": \"" + dir.string() + "\"}"
              : "{\"name\": \"mnist\", \"n_train\": 120, \"n_test\": 60}";
    return Json::parse(
        "{\"name\": \"e2e\", \"kind\": \"robustness\","
        " \"backend\": \"reference\","
        " \"model\": {\"name\": \"m\", \"dataset\": " + dataset + ","
        "   \"model\": {\"arch\": \"mlp\", \"width\": 8,"
        "     \"in_channels\": 1, \"image_size\": 12, \"num_classes\": 10},"
        "   \"quant\": {\"scheme\": \"rquant\", \"bits\": 8},"
        "   \"train\": {\"method\": \"clipping\", \"wmax\": 0.2,"
        "     \"epochs\": 2, \"batch_size\": 32, \"lr\": 0.1}},"
        " \"fault\": {\"model\": \"random\", \"seed_base\": 77},"
        " \"eval\": {\"n_trials\": 2, \"split\": \"test\","
        "   \"clean_err\": true, \"rate_grid\": [0.01]}}");
  };

  const auto run = [&](bool shard) {
    // Fresh artifacts dir per run: the checkpoint cache must not let the
    // second run skip training.
    static int run_id = 0;
    const fs::path art = dir / ("art" + std::to_string(run_id++));
    EXPECT_EQ(setenv("BER_ARTIFACTS", art.string().c_str(), 1), 0);
    Json j =
        api::Runner(api::ExperimentSpec::from_json(spec_json(shard))).run()
            .to_json();
    EXPECT_EQ(unsetenv("BER_ARTIFACTS"), 0);
    j.set("metrics", Json());   // cumulative process counters; not compared
    j.set("spec", Json());      // dataset sections differ by construction
    return j.dump(2);
  };

  const std::string synthetic = run(/*shard=*/false);
  EXPECT_EQ(run(/*shard=*/true), synthetic);
  fs::remove_all(dir);
}

// The spec layer rejects unknown sources with the accepted list, and shard
// model sections must carry explicit geometry.
TEST(Spec, DatasetSourceValidation) {
  const auto entry_with_dataset = [](const std::string& dataset) {
    return Json::parse(
        "{\"name\": \"m\", \"dataset\": " + dataset + ","
        " \"model\": {\"arch\": \"mlp\", \"width\": 8,"
        "  \"in_channels\": 1, \"image_size\": 12, \"num_classes\": 10}}");
  };
  EXPECT_THROW(api::model_entry_from_json(
                   entry_with_dataset("{\"source\": \"webdataset\"}"), "m"),
               std::invalid_argument);
  EXPECT_THROW(api::model_entry_from_json(
                   entry_with_dataset("{\"source\": \"shard\"}"), "m"),
               std::invalid_argument);  // missing path
  try {
    api::model_entry_from_json(entry_with_dataset("{\"source\": \"nope\"}"),
                               "m");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("synthetic idx cifar10 shard"),
              std::string::npos)
        << e.what();
  }

  // Shard-backed model sections without explicit geometry fail at parse
  // time with a pointer at the fix.
  const Json entry = Json::parse(
      "{\"name\": \"m\","
      " \"dataset\": {\"source\": \"shard\", \"path\": \"/tmp/x\"},"
      " \"model\": {\"arch\": \"mlp\", \"width\": 8}}");
  try {
    api::model_entry_from_json(entry, "m");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard"), std::string::npos)
        << e.what();
  }
}

}  // namespace
