// Unified FaultModel pipeline tests: BitErrorConfig validation, bit-exact
// agreement of the sparse ChipFaultList path with the scalar reference,
// fault persistence across rates, and regression of the evaluator's fault
// models (and the ECC baseline) against the legacy hand-rolled pipelines
// they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/hash.h"
#include "core/rng.h"
#include "data/shapes.h"
#include "eval/metrics.h"
#include "faults/ecc_protected_model.h"
#include "faults/evaluator.h"
#include "faults/linf_noise_model.h"
#include "faults/profiled_chip_model.h"
#include "faults/random_bit_error_model.h"
#include "models/factory.h"
#include "nn/init.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "quant/net_quantizer.h"
#include "test_util.h"

namespace ber {
namespace {

using test::Mode;
using test::evaluator_in;
using test::for_each_mode;
using test::kAllModes;
using test::kBackendModes;

NetSnapshot make_snapshot(std::size_t n_weights, int bits,
                          std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<float> w(n_weights);
  for (auto& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  NetSnapshot snap;
  snap.tensors.push_back(quantize(w, QuantScheme::rquant(bits)));
  snap.offsets.push_back(0);
  return snap;
}

struct Fixture {
  Dataset data;
  std::unique_ptr<Sequential> model;

  explicit Fixture(int n = 120) {
    auto cfg = SyntheticConfig::mnist();
    cfg.n_test = n;
    data = make_synthetic(cfg, false);
    ModelConfig mc;
    mc.arch = Arch::kMlp;
    mc.in_channels = 1;
    mc.width = 8;
    model = build_model(mc);
    Rng rng(5);
    he_init(*model, rng);
  }
};

// ------------------------------------------------------------ validation ---

TEST(BitErrorConfigValidation, NegativeFractionThrows) {
  BitErrorConfig cfg;
  cfg.flip_fraction = 1.2;
  cfg.set1_fraction = -0.2;
  NetSnapshot snap = make_snapshot(100, 8);
  EXPECT_THROW(inject_random_bit_errors(snap, cfg, 1), std::invalid_argument);
  EXPECT_THROW(RandomBitErrorModel{cfg}, std::invalid_argument);
}

TEST(BitErrorConfigValidation, FractionsMustSumToOne) {
  BitErrorConfig cfg;
  cfg.flip_fraction = 0.5;
  cfg.set1_fraction = 0.2;
  cfg.set0_fraction = 0.2;  // sums to 0.9
  NetSnapshot snap = make_snapshot(100, 8);
  EXPECT_THROW(inject_random_bit_errors(snap, cfg, 1), std::invalid_argument);
  EXPECT_THROW(RandomBitErrorModel{cfg}, std::invalid_argument);
  cfg.set0_fraction = 0.3;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_NO_THROW(BitErrorConfig::biased_set1(0.01).validate());
}

TEST(BitErrorConfigValidation, RateOutsideUnitIntervalThrows) {
  BitErrorConfig cfg;
  cfg.p = 1.5;
  NetSnapshot snap = make_snapshot(10, 8);
  EXPECT_THROW(inject_random_bit_errors(snap, cfg, 1), std::invalid_argument);
}

// ---------------------------------------------- sparse path vs scalar path --

TEST(ChipFaultList, ByteIdenticalToScalarPath) {
  const NetSnapshot clean = make_snapshot(30000, 8);
  for (double p : {0.0001, 0.001, 0.01, 0.05}) {
    for (std::uint64_t chip : {7ULL, 42ULL, 1000ULL}) {
      BitErrorConfig cfg;
      cfg.p = p;
      NetSnapshot sparse = clean, scalar = clean;
      const std::size_t changed_sparse =
          ChipFaultList(clean, cfg, chip, p).apply(sparse, p);
      const std::size_t changed_scalar =
          inject_random_bit_errors(scalar, cfg, chip);
      EXPECT_EQ(changed_sparse, changed_scalar) << "p=" << p;
      EXPECT_EQ(sparse.tensors[0].codes, scalar.tensors[0].codes)
          << "p=" << p << " chip=" << chip;
    }
  }
}

TEST(ChipFaultList, ByteIdenticalWithStuckAtMix) {
  const NetSnapshot clean = make_snapshot(20000, 6);
  const BitErrorConfig cfg = BitErrorConfig::biased_set1(0.02);
  NetSnapshot sparse = clean, scalar = clean;
  ChipFaultList(clean, cfg, 11, cfg.p).apply(sparse, cfg.p);
  inject_random_bit_errors(scalar, cfg, 11);
  EXPECT_EQ(sparse.tensors[0].codes, scalar.tensors[0].codes);
}

TEST(ChipFaultList, MultiTensorByteIdentical) {
  Rng rng(4);
  std::vector<float> w(5000);
  for (auto& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  NetSnapshot clean;
  clean.tensors.push_back(quantize(w, QuantScheme::rquant(8)));
  clean.offsets.push_back(0);
  clean.tensors.push_back(quantize(w, QuantScheme::rquant(4)));
  clean.offsets.push_back(5000);
  BitErrorConfig cfg;
  cfg.p = 0.01;
  NetSnapshot sparse = clean, scalar = clean;
  ChipFaultList(clean, cfg, 77, cfg.p).apply(sparse, cfg.p);
  inject_random_bit_errors(scalar, cfg, 77);
  for (std::size_t t = 0; t < clean.tensors.size(); ++t) {
    EXPECT_EQ(sparse.tensors[t].codes, scalar.tensors[t].codes) << "t=" << t;
  }
}

TEST(ChipFaultList, ListBuiltAtPMaxServesLowerRates) {
  // The list built once at the top of a rate grid, filtered to p, must equal
  // a fresh injection at p — this is the persistence property that makes
  // multi-rate sweeps cheap.
  const NetSnapshot clean = make_snapshot(20000, 8);
  BitErrorConfig cfg;
  cfg.p = 0.02;
  const ChipFaultList list(clean, cfg, /*chip_seed=*/42, /*p_max=*/0.02);
  for (double p : {0.0, 0.001, 0.005, 0.02}) {
    NetSnapshot from_list = clean, fresh = clean;
    list.apply(from_list, p);
    BitErrorConfig at_p = cfg;
    at_p.p = p;
    inject_random_bit_errors(fresh, at_p, 42);
    EXPECT_EQ(from_list.tensors[0].codes, fresh.tensors[0].codes)
        << "p=" << p;
  }
  EXPECT_THROW(
      {
        NetSnapshot s = clean;
        list.apply(s, 0.05);  // above p_max
      },
      std::invalid_argument);
}

TEST(ChipFaultList, ApplyRejectsMismatchedLayout) {
  const NetSnapshot built_for = make_snapshot(1000, 8);
  BitErrorConfig cfg;
  cfg.p = 0.01;
  const ChipFaultList list(built_for, cfg, 1, cfg.p);
  NetSnapshot smaller = make_snapshot(500, 8);
  EXPECT_THROW(list.apply(smaller, cfg.p), std::invalid_argument);
  NetSnapshot narrower = make_snapshot(1000, 4);
  EXPECT_THROW(list.apply(narrower, cfg.p), std::invalid_argument);
}

TEST(ChipFaultList, ShardedParallelPathByteIdentical) {
  // 150k elements span three intra-tensor shards, and at p = 0.06 both the
  // build (150k words) and the apply (~72k faults) clear the intra-op floor,
  // so at 3 and 4 threads both split ONE tensor — the case per-tensor
  // parallelism could not split. Codes, changed count and ledger rows must
  // not depend on the thread count.
  const NetSnapshot clean = make_snapshot(150000, 8);
  BitErrorConfig cfg;
  cfg.p = 0.06;
  NetSnapshot scalar = clean;
  const std::size_t changed_scalar = inject_random_bit_errors(scalar, cfg, 21);
  const auto same_row = [](const obs::FlipRecord& a,
                           const obs::FlipRecord& b) {
    return a.token == b.token && a.tensor == b.tensor && a.index == b.index &&
           a.bit == b.bit && a.width == b.width &&
           a.bit_class == b.bit_class && a.code_before == b.code_before &&
           a.code_after == b.code_after;
  };
  std::vector<obs::FlipRecord> rows_one;
  for (const char* threads : {"1", "3", "4"}) {
    const test::ScopedThreadsEnv scoped(threads);
    const ChipFaultList list(clean, cfg, /*chip_seed=*/21, cfg.p);
    ASSERT_GT(static_cast<double>(list.size()), kIntraOpMinFloats);
    NetSnapshot sharded = clean;
    obs::fault_ledger().clear();
    obs::fault_ledger().set_enabled(true);
    std::size_t changed = 0;
    {
      const obs::ForensicsTrialScope scope(0, "sharded");
      changed = list.apply(sharded, cfg.p);
    }
    obs::fault_ledger().set_enabled(false);
    EXPECT_EQ(changed, changed_scalar) << threads << " threads";
    EXPECT_EQ(sharded.tensors[0].codes, scalar.tensors[0].codes)
        << threads << " threads";
    const std::vector<obs::FlipRecord> rows =
        obs::fault_ledger().records("sharded");
    EXPECT_EQ(rows.size(), list.size()) << threads << " threads";
    if (rows_one.empty()) {
      rows_one = rows;
    } else {
      EXPECT_TRUE(std::equal(rows.begin(), rows.end(), rows_one.begin(),
                             rows_one.end(), same_row))
          << threads << " threads";
    }
  }
  obs::fault_ledger().clear();
}

TEST(ChipFaultList, PerTensorVectorCtorMatchesHashedBuild) {
  const NetSnapshot clean = make_snapshot(70000, 8);
  BitErrorConfig cfg;
  cfg.p = 0.01;
  const std::uint64_t chip = 5;
  // Recreate the chip's fault pattern coordinate by coordinate, then feed it
  // through the assembly constructor.
  std::vector<std::vector<ChipFault>> per_tensor(1);
  for (std::size_t i = 0; i < clean.tensors[0].codes.size(); ++i) {
    for (int j = 0; j < 8; ++j) {
      const double u = hash_uniform(chip, i, static_cast<std::uint64_t>(j));
      if (u >= cfg.p) continue;
      per_tensor[0].push_back(
          {static_cast<std::uint32_t>(i), static_cast<std::uint8_t>(j),
           static_cast<std::uint8_t>(fault_type_at(cfg, chip, i, j)), u});
    }
  }
  const ChipFaultList assembled(clean, std::move(per_tensor), cfg.p, chip);
  EXPECT_EQ(assembled.chip_seed(), chip);
  NetSnapshot a = clean, b = clean;
  assembled.apply(a, cfg.p);
  ChipFaultList(clean, cfg, chip, cfg.p).apply(b, cfg.p);
  EXPECT_EQ(a.tensors[0].codes, b.tensors[0].codes);
}

TEST(ChipFaultList, PerTensorCtorRejectsBadInput) {
  const NetSnapshot layout = make_snapshot(100, 8);
  EXPECT_THROW((ChipFaultList(layout, {{}, {}}, 0.01)),  // tensor count
               std::invalid_argument);
  std::vector<std::vector<ChipFault>> unsorted(1);
  unsorted[0] = {{5, 0, 0, 0.001}, {2, 0, 0, 0.001}};
  EXPECT_THROW(ChipFaultList(layout, std::move(unsorted), 0.01),
               std::invalid_argument);
  std::vector<std::vector<ChipFault>> outside(1);
  outside[0] = {{100, 0, 0, 0.001}};  // element index == tensor size
  EXPECT_THROW(ChipFaultList(layout, std::move(outside), 0.01),
               std::invalid_argument);
  std::vector<std::vector<ChipFault>> wide(1);
  wide[0] = {{0, 8, 0, 0.001}};  // bit == code width
  EXPECT_THROW(ChipFaultList(layout, std::move(wide), 0.01),
               std::invalid_argument);
}

TEST(ProfiledChip, FaultListServesWholeVoltageGrid) {
  ProfiledChipConfig cc = ProfiledChipConfig::chip2();
  cc.rows = 512;
  cc.cols = 64;
  const ProfiledChip chip(cc);
  const NetSnapshot clean = make_snapshot(20000, 8);
  const std::uint64_t offset = 7919ULL * 64ULL;
  const double p_max = chip.model_rate_at(0.80);
  const ChipFaultList list = chip.fault_list(clean, p_max, offset);
  EXPECT_EQ(list.p_max(), p_max);
  for (double v : {0.80, 0.85, 0.92, 1.05}) {
    NetSnapshot from_list = clean, fresh = clean;
    list.apply(from_list, chip.model_rate_at(v));
    chip.apply(fresh, v, offset);
    EXPECT_EQ(from_list.tensors[0].codes, fresh.tensors[0].codes)
        << "v=" << v;
  }
}

TEST(RobustnessEvaluator, VoltageSweepMatchesIndividualRuns) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f;
    const QuantScheme scheme = QuantScheme::rquant(8);
    ProfiledChipConfig cc = ProfiledChipConfig::chip2();
    cc.rows = 512;
    cc.cols = 64;
    const ProfiledChip chip(cc);
    const std::vector<double> grid{0.82, 0.86, 0.95};
    const ProfiledChipModel fault(chip, grid[0]);
    std::vector<double> rates;
    for (double v : grid) rates.push_back(fault.rate_at_voltage(v));
    const RobustnessEvaluator evaluator = evaluator_in(mode, *f.model, scheme);
    obs::Histogram& trial_us = obs::registry().histogram("faults.trial_us");
    const std::uint64_t timed0 = trial_us.snapshot().count;
    const auto sweep = evaluator.run_rate_sweep(fault, rates, f.data, 4);
    // Every (chip, voltage) cell of the sweep is timed: 4 chips x 3 voltages.
    EXPECT_EQ(trial_us.snapshot().count - timed0, 12u);
    ASSERT_EQ(sweep.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const RobustResult single =
          evaluator.run(ProfiledChipModel(chip, grid[i]), f.data, 4);
      EXPECT_EQ(sweep[i].per_chip, single.per_chip) << "v=" << grid[i];
    }
  });
}

TEST(ChipFaultList, FaultCountConcentratesAroundExpectation) {
  const NetSnapshot clean = make_snapshot(40000, 8);
  BitErrorConfig cfg;
  cfg.p = 0.01;
  const ChipFaultList list(clean, cfg, 9, cfg.p);
  const double expected = expected_bit_errors(cfg.p, 8, 40000);
  EXPECT_NEAR(static_cast<double>(list.size()), expected,
              5.0 * std::sqrt(expected));
}

// ------------------------------------------------------ metric regression ---

// The legacy aggregation formula (pre-refactor eval/metrics.cpp).
RobustResult legacy_summarize(std::vector<float> errs,
                              std::vector<float> confs) {
  RobustResult r;
  r.per_chip = std::move(errs);
  double sum = 0.0, sq = 0.0, csum = 0.0;
  for (float e : r.per_chip) {
    sum += e;
    sq += static_cast<double>(e) * e;
  }
  for (float c : confs) csum += c;
  const double n = static_cast<double>(r.per_chip.size());
  r.mean_rerr = static_cast<float>(sum / n);
  const double var = std::max(0.0, sq / n - (sum / n) * (sum / n));
  r.std_rerr = static_cast<float>(std::sqrt(var * n / std::max(1.0, n - 1)));
  r.mean_confidence = static_cast<float>(csum / n);
  return r;
}

// The legacy random-error pipeline (fresh clone per chip, scalar injection).
// Code-space legacy loops deploy through the same weight-space/on-codes
// switch the evaluator uses, so the regression stays a pipeline-identity
// check on the int8 datapath too.
RobustResult legacy_random_rerr(Sequential& model, const QuantScheme& scheme,
                                 const Dataset& data,
                                 const BitErrorConfig& config, int n_chips,
                                 std::uint64_t seed_base, bool on_codes) {
  NetQuantizer quantizer(scheme);
  const NetSnapshot base = quantizer.quantize(model.params());
  std::vector<float> errs, confs;
  for (int c = 0; c < n_chips; ++c) {
    Sequential clone(model);
    NetSnapshot snap = base;
    inject_random_bit_errors(snap, config,
                             seed_base + static_cast<std::uint64_t>(c));
    deploy_snapshot(snap, param_slots(clone), on_codes);
    const EvalResult r = evaluate(clone, data);
    errs.push_back(r.error);
    confs.push_back(r.confidence);
  }
  return legacy_summarize(std::move(errs), std::move(confs));
}

RobustResult legacy_profiled_rerr(Sequential& model, const QuantScheme& scheme,
                                  const Dataset& data,
                                  const ProfiledChip& chip, double v,
                                  int n_offsets, bool on_codes) {
  NetQuantizer quantizer(scheme);
  const NetSnapshot base = quantizer.quantize(model.params());
  std::vector<float> errs, confs;
  for (int i = 0; i < n_offsets; ++i) {
    Sequential clone(model);
    NetSnapshot snap = base;
    const std::uint64_t offset =
        (static_cast<std::uint64_t>(i) * 7919ULL * 64ULL) %
        static_cast<std::uint64_t>(chip.num_cells());
    chip.apply(snap, v, offset);
    deploy_snapshot(snap, param_slots(clone), on_codes);
    const EvalResult r = evaluate(clone, data);
    errs.push_back(r.error);
    confs.push_back(r.confidence);
  }
  return legacy_summarize(std::move(errs), std::move(confs));
}

RobustResult legacy_linf_rerr(Sequential& model, const Dataset& data,
                             double rel_eps, int n_samples,
                             std::uint64_t seed_base) {
  std::vector<float> errs, confs;
  for (int s = 0; s < n_samples; ++s) {
    Sequential clone(model);
    Rng rng(hash_mix(seed_base, static_cast<std::uint64_t>(s), 0x11FFULL));
    for (Param* p : clone.params()) {
      const float range = p->value.abs_max();
      const float eps = static_cast<float>(rel_eps) * range;
      for (long i = 0; i < p->value.numel(); ++i) {
        p->value[i] += static_cast<float>(rng.uniform(-eps, eps));
      }
    }
    const EvalResult r = evaluate(clone, data);
    errs.push_back(r.error);
    confs.push_back(r.confidence);
  }
  return legacy_summarize(std::move(errs), std::move(confs));
}

void expect_same_result(const RobustResult& now, const RobustResult& legacy) {
  EXPECT_EQ(now.per_chip, legacy.per_chip);
  EXPECT_FLOAT_EQ(now.mean_rerr, legacy.mean_rerr);
  EXPECT_FLOAT_EQ(now.std_rerr, legacy.std_rerr);
  EXPECT_FLOAT_EQ(now.mean_confidence, legacy.mean_confidence);
}

TEST(FaultRegression, RandomBitErrorModelUnchanged) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f;
    const QuantScheme scheme = QuantScheme::rquant(8);
    BitErrorConfig cfg;
    cfg.p = 0.01;
    expect_same_result(
        evaluator_in(mode, *f.model, scheme)
            .run(RandomBitErrorModel(cfg, /*seed_base=*/1000), f.data, 5),
        legacy_random_rerr(*f.model, scheme, f.data, cfg, 5, 1000,
                           mode.on_codes));
  });
}

TEST(FaultRegression, ProfiledChipModelUnchanged) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f;
    const QuantScheme scheme = QuantScheme::rquant(8);
    ProfiledChipConfig cc = ProfiledChipConfig::chip2();
    cc.rows = 512;
    cc.cols = 64;
    const ProfiledChip chip(cc);
    expect_same_result(
        evaluator_in(mode, *f.model, scheme)
            .run(ProfiledChipModel(chip, 0.84), f.data, 4),
        legacy_profiled_rerr(*f.model, scheme, f.data, chip, 0.84, 4,
                             mode.on_codes));
  });
}

TEST(FaultRegression, LinfNoiseModelUnchanged) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    Fixture f;
    expect_same_result(
        RobustnessEvaluator(*f.model)
            .run(LinfNoiseModel(0.1, /*seed_base=*/2000), f.data, 4),
        legacy_linf_rerr(*f.model, f.data, 0.1, 4, 2000));
  });
}

// The legacy ECC baseline loop (pre-refactor bench_ecc_baseline.cpp).
RobustResult legacy_rerr_with_secded(Sequential& model,
                                     const QuantScheme& scheme,
                                     const Dataset& data, double p,
                                     int chips, bool on_codes) {
  NetQuantizer quantizer(scheme);
  const NetSnapshot base = quantizer.quantize(model.params());
  std::vector<float> errs, confs;
  for (int chip = 0; chip < chips; ++chip) {
    NetSnapshot snap = base;
    Rng rng(hash_mix(7777, static_cast<std::uint64_t>(chip), 1));
    for (auto& qt : snap.tensors) {
      for (std::size_t w0 = 0; w0 < qt.codes.size(); w0 += 8) {
        std::uint64_t data_word = 0;
        const std::size_t count =
            std::min<std::size_t>(8, qt.codes.size() - w0);
        for (std::size_t j = 0; j < count; ++j) {
          data_word |= static_cast<std::uint64_t>(qt.codes[w0 + j] & 0xFF)
                       << (8 * j);
        }
        SecdedWord word = secded_encode(data_word);
        for (int bit = 0; bit < 72; ++bit) {
          if (rng.bernoulli(p)) secded_flip(word, bit);
        }
        const SecdedResult decoded = secded_decode(word);
        for (std::size_t j = 0; j < count; ++j) {
          qt.codes[w0 + j] =
              static_cast<std::uint16_t>((decoded.data >> (8 * j)) & 0xFF);
        }
      }
    }
    Sequential clone(model);
    deploy_snapshot(snap, param_slots(clone), on_codes);
    const EvalResult r = evaluate(clone, data);
    errs.push_back(r.error);
    confs.push_back(r.confidence);
  }
  return legacy_summarize(std::move(errs), std::move(confs));
}

TEST(FaultRegression, EccProtectedModelMatchesLegacyBenchLoop) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f;
    const QuantScheme scheme = QuantScheme::rquant(8);
    for (double p : {0.001, 0.01}) {
      const EccProtectedModel fault(p);
      const RobustResult now =
          evaluator_in(mode, *f.model, scheme).run(fault, f.data, 3);
      const RobustResult legacy = legacy_rerr_with_secded(
          *f.model, scheme, f.data, p, 3, mode.on_codes);
      expect_same_result(now, legacy);
    }
  });
}

// ------------------------------------------------------------- evaluator ---

TEST(RobustnessEvaluator, RateSweepMatchesIndividualRuns) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f;
    const QuantScheme scheme = QuantScheme::rquant(8);
    const std::vector<double> grid{0.001, 0.005, 0.02};
    BitErrorConfig cfg;
    cfg.p = 0.02;
    const RandomBitErrorModel fault(cfg, /*seed_base=*/1000);
    const RobustnessEvaluator evaluator = evaluator_in(mode, *f.model, scheme);
    const auto sweep = evaluator.run_rate_sweep(fault, grid, f.data, 4);
    ASSERT_EQ(sweep.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      BitErrorConfig at_p = cfg;
      at_p.p = grid[i];
      const RobustResult single =
          evaluator.run(RandomBitErrorModel(at_p, 1000), f.data, 4);
      EXPECT_EQ(sweep[i].per_chip, single.per_chip) << "p=" << grid[i];
    }
  });
}

TEST(RobustnessEvaluator, CellGridBitIdenticalAcrossThreadCounts) {
  for_each_mode(kBackendModes, [&](const Mode&) {
    // The benchmark's shape, 5 chips x 5 rates on codes: cell counts that no
    // thread count from 2 to 4 divides, so workers claim uneven cell shares.
    Fixture f;
    const std::vector<double> grid{0.001, 0.003, 0.005, 0.01, 0.02};
    BitErrorConfig cfg;
    cfg.p = 0.02;
    const RandomBitErrorModel fault(cfg, /*seed_base=*/4242);
    RobustnessEvaluator evaluator(*f.model, QuantScheme::rquant(8));
    evaluator.set_compute_on_codes(true);
    obs::Counter& built = obs::registry().counter("faults.fault_lists_built");
    obs::Histogram& timed = obs::registry().histogram("faults.trial_us");

    // default_threads() reads BER_THREADS on every call, so each sweep
    // claims its cells with a different number of workers.
    const auto sweep_with_threads = [&](const char* threads) {
      const test::ScopedThreadsEnv scoped(threads);
      const std::uint64_t built0 = built.value();
      const std::uint64_t timed0 = timed.snapshot().count;
      auto sweep = evaluator.run_rate_sweep(fault, grid, f.data, 5, 40);
      EXPECT_EQ(built.value() - built0, 5u) << "one list per chip";
      EXPECT_EQ(timed.snapshot().count - timed0, 25u) << "one sample per cell";
      return sweep;
    };

    const auto one = sweep_with_threads("1");
    ASSERT_EQ(one.size(), grid.size());
    for (const char* threads : {"2", "3", "4"}) {
      const auto many = sweep_with_threads(threads);
      ASSERT_EQ(many.size(), grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(many[i].per_chip, one[i].per_chip)
            << "threads=" << threads << " p=" << grid[i];
      }
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
      BitErrorConfig at_p = cfg;
      at_p.p = grid[i];
      const RobustResult single =
          evaluator.run(RandomBitErrorModel(at_p, 4242), f.data, 5, 40);
      EXPECT_EQ(one[i].per_chip, single.per_chip) << "p=" << grid[i];
    }
  });
}

TEST(RobustnessEvaluator, RejectsNonPositiveBatchAndEmptyData) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    // A non-positive batch would never advance the evaluation loop and an
    // empty set has no error rate; both throw from inside a cell and reach
    // the caller.
    Fixture f;
    const RobustnessEvaluator evaluator =
        evaluator_in(mode, *f.model, QuantScheme::rquant(8));
    BitErrorConfig cfg;
    cfg.p = 0.02;
    const RandomBitErrorModel random(cfg);
    const Dataset empty;
    for (long batch : {0L, -3L}) {
      EXPECT_THROW(evaluator.run(random, f.data, 3, batch),
                   std::invalid_argument);
      EXPECT_THROW(
          evaluator.run_rate_sweep(random, {0.01, 0.02}, f.data, 3, batch),
          std::invalid_argument);
    }
    EXPECT_THROW(evaluator.run(random, empty, 3), std::invalid_argument);
    EXPECT_THROW(evaluator.run_rate_sweep(random, {0.01, 0.02}, empty, 3),
                 std::invalid_argument);

    const RobustResult after = evaluator.run(random, f.data, 4);
    const RobustResult fresh =
        evaluator_in(mode, *f.model, QuantScheme::rquant(8))
            .run(random, f.data, 4);
    EXPECT_EQ(after.per_chip, fresh.per_chip);
  });
}

TEST(RobustnessEvaluator, RateSweepRejectsNonPersistentModels) {
  // Fails on the calling thread, before any trial fans out to a worker.
  Fixture f;
  const RobustnessEvaluator evaluator(*f.model, QuantScheme::rquant(8));
  EXPECT_FALSE(EccProtectedModel(0.01).persistent());
  EXPECT_THROW(evaluator.run_rate_sweep(EccProtectedModel(0.01), {0.01},
                                        f.data, 2),
               std::invalid_argument);
  EXPECT_THROW(evaluator.run_rate_sweep(LinfNoiseModel(0.1), {0.01}, f.data, 2),
               std::invalid_argument);
}

TEST(FaultModel, PersistentModelsExposeTheirVoltageCurves) {
  // Random errors follow the default Fig. 1 curve; a profiled chip its own.
  const RandomBitErrorModel random(BitErrorConfig{});
  ProfiledChipConfig cc = ProfiledChipConfig::chip1();
  cc.rows = 64;
  cc.rate_model.slope = 30.0;
  const ProfiledChipModel profiled(cc, 0.9);
  for (double v : {1.0, 0.9, 0.8}) {
    EXPECT_EQ(random.rate_at_voltage(v), SramEnergyModel{}.bit_error_rate(v));
    EXPECT_EQ(profiled.rate_at_voltage(v), profiled.chip().model_rate_at(v));
  }
  EXPECT_NE(random.rate_at_voltage(0.9), profiled.rate_at_voltage(0.9));
}

TEST(RobustnessEvaluator, ModelLeftUntouched) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f;
    const float before = f.model->params()[0]->value[0];
    BitErrorConfig cfg;
    cfg.p = 0.05;
    RobustnessEvaluator evaluator =
        evaluator_in(mode, *f.model, QuantScheme::rquant(8));
    evaluator.run(RandomBitErrorModel(cfg), f.data, 3);
    evaluator.run(EccProtectedModel(0.01), f.data, 2);
    EXPECT_EQ(f.model->params()[0]->value[0], before);

    RobustnessEvaluator float_eval(*f.model);
    float_eval.run(LinfNoiseModel(0.2), f.data, 3);
    EXPECT_EQ(f.model->params()[0]->value[0], before);
  });
}

TEST(RobustnessEvaluator, EachModeRejectsTheOtherFaultSpace) {
  Fixture f;
  BitErrorConfig cfg;
  RobustnessEvaluator float_eval(*f.model);
  EXPECT_THROW(float_eval.run(RandomBitErrorModel(cfg), f.data, 2),
               std::invalid_argument);
  RobustnessEvaluator quant_eval(*f.model, QuantScheme::rquant(8));
  EXPECT_THROW(quant_eval.run(LinfNoiseModel(0.1), f.data, 2),
               std::invalid_argument);
}

// A persistent code-space model whose chip 2 fails: apply() and
// fault_list() throw for trial 2 and inject nothing for the other trials.
class FailingChipModel : public FaultModel {
 public:
  std::string describe() const override { return "failing chip"; }
  std::size_t apply(NetSnapshot& snap, std::uint64_t trial) const override {
    fail_on_chip2(trial);
    return clean_.apply(snap, trial);
  }
  bool persistent() const override { return true; }
  ChipFaultList fault_list(const NetSnapshot& layout, std::uint64_t trial,
                           double p_max) const override {
    fail_on_chip2(trial);
    return clean_.fault_list(layout, trial, p_max);
  }

 private:
  static void fail_on_chip2(std::uint64_t trial) {
    if (trial == 2) throw std::runtime_error("chip 2 failed");
  }
  RandomBitErrorModel clean_{BitErrorConfig{}};  // p = 0
};

TEST(RobustnessEvaluator, TrialExceptionReachesCallerAndEvaluatorRecovers) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f;
    const RobustnessEvaluator evaluator =
        evaluator_in(mode, *f.model, QuantScheme::rquant(8));
    const FailingChipModel failing;
    const auto expect_chip2_failure = [](const std::function<void()>& call) {
      try {
        call();
        ADD_FAILURE() << "the failing trial did not throw";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chip 2 failed");
      }
    };
    expect_chip2_failure([&] { evaluator.run(failing, f.data, 4); });
    expect_chip2_failure(
        [&] { evaluator.run_rate_sweep(failing, {0.0, 0.01}, f.data, 4); });

    BitErrorConfig cfg;
    cfg.p = 0.02;
    const RandomBitErrorModel random(cfg);
    const RobustResult after = evaluator.run(random, f.data, 4);
    const RobustResult fresh =
        evaluator_in(mode, *f.model, QuantScheme::rquant(8))
            .run(random, f.data, 4);
    EXPECT_EQ(after.per_chip, fresh.per_chip);
  });
}

TEST(EccProtectedModel, ComposesWithPersistentInnerModel) {
  const NetSnapshot clean = make_snapshot(4000, 8);
  BitErrorConfig cfg;
  cfg.p = 0.02;
  const EccProtectedModel fault(std::make_unique<RandomBitErrorModel>(cfg));
  NetSnapshot a = clean, b = clean;
  const std::size_t changed_a = fault.apply(a, /*trial=*/0);
  fault.apply(b, /*trial=*/0);
  EXPECT_EQ(a.tensors[0].codes, b.tensors[0].codes);  // deterministic
  EXPECT_GT(changed_a, 0u);
  NetSnapshot c = clean;
  fault.apply(c, /*trial=*/1);  // different trial, different faults
  EXPECT_NE(a.tensors[0].codes, c.tensors[0].codes);
}

TEST(EccProtectedModel, WideCodesRejectedOnCallingThread) {
  // The evaluator must surface the layout error as a catchable exception
  // (thrown before trials fan out to worker threads).
  Fixture f;
  const EccProtectedModel fault(0.01);
  RobustnessEvaluator evaluator(*f.model, QuantScheme::rquant(12));
  EXPECT_THROW(evaluator.run(fault, f.data, 4), std::invalid_argument);
}

TEST(EccProtectedModel, SubByteCodesStayInRange) {
  // With 4-bit codes packed one per byte, faults on the byte's padding bits
  // may defeat ECC correction but must never leak into the stored code.
  const NetSnapshot clean = make_snapshot(4000, 4);
  const EccProtectedModel fault(0.02);
  NetSnapshot snap = clean;
  fault.apply(snap, 1);
  for (std::uint16_t code : snap.tensors[0].codes) EXPECT_LT(code, 16u);
}

TEST(EccProtectedModel, CorrectsEverythingAtTinyRates) {
  // At p small enough that multi-bit words are vanishingly rare, SECDED
  // repairs (almost surely) every word.
  const NetSnapshot clean = make_snapshot(2000, 8);
  const EccProtectedModel fault(1e-5);
  NetSnapshot snap = clean;
  fault.apply(snap, 3);
  EXPECT_EQ(snap.tensors[0].codes, clean.tensors[0].codes);
}

TEST(StreamingMoments, MatchesClosedForm) {
  StreamingMoments m;
  for (double x : {1.0, 2.0, 3.0, 4.0}) m.add(x);
  EXPECT_EQ(m.count(), 4);
  EXPECT_DOUBLE_EQ(m.mean(), 2.5);
  // Sample variance of {1,2,3,4} is 5/3.
  EXPECT_NEAR(m.sample_std(), std::sqrt(5.0 / 3.0), 1e-12);
}

}  // namespace
}  // namespace ber
