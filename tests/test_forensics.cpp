// Fault-forensics tests (obs/forensics.h): the disabled-path contract
// (bit-exact injection, no forensics.* registry keys), ledger exactness
// against the stateless hash reference, counter reconciliation across the
// evaluator's paths (random, profiled and adversarial faults; one point and
// rate sweeps), probe determinism across thread counts, the
// adversarial-vs-random bit-position separation the attribution exists to
// show, the adversarial replay's pinned ledger rows, and the eval.forensics
// spec section.
//
// The first test pins the disabled-mode guarantees, so it must run before
// anything in this binary enables the ledger (gtest runs tests in
// declaration order).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/spec.h"
#include "core/rng.h"
#include "data/shapes.h"
#include "faults/adversarial_model.h"
#include "faults/evaluator.h"
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
using test::for_each_mode;
using test::kAllModes;

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

  explicit Fixture(int n = 80) {
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

// ------------------------------------------------------------ disabled path --

TEST(ForensicsDisabled, BitExactInjectionAndNoRegistryKeys) {
  ASSERT_FALSE(obs::forensics_enabled());
  const NetSnapshot clean = make_snapshot(20000, 8);
  BitErrorConfig cfg;
  cfg.p = 0.01;
  const ChipFaultList list(clean, cfg, 7, cfg.p);

  NetSnapshot off = clean;
  const std::size_t changed_off = list.apply(off, cfg.p);
  NetSnapshot off_scalar = clean;
  EXPECT_EQ(inject_random_bit_errors(off_scalar, cfg, 7), changed_off);
  EXPECT_EQ(off.tensors[0].codes, off_scalar.tensors[0].codes);

  // Nothing recorded, and — critically — the instrumentation never touched
  // the registry: a disabled run leaves no forensics.* keys behind.
  EXPECT_EQ(obs::fault_ledger().totals().applies, 0u);
  const Json snapshot = obs::registry().to_json();
  for (const auto& [section, metrics] : snapshot.members()) {
    for (const auto& [key, value] : metrics.members()) {
      EXPECT_EQ(key.find("forensics"), std::string::npos) << key;
    }
  }

  // Enabling the ledger must not perturb the datapath: byte-identical codes
  // and the same changed-word count.
  obs::fault_ledger().set_enabled(true);
  NetSnapshot on = clean;
  {
    const obs::ForensicsTrialScope scope(0, "exact");
    EXPECT_EQ(list.apply(on, cfg.p), changed_off);
  }
  obs::fault_ledger().set_enabled(false);
  EXPECT_EQ(on.tensors[0].codes, off.tensors[0].codes);
  obs::fault_ledger().clear();
}

TEST(ForensicsLedger, EnabledWithoutScopeRecordsNothing) {
  obs::fault_ledger().clear();
  obs::fault_ledger().set_enabled(true);
  NetSnapshot snap = make_snapshot(2000, 8);
  BitErrorConfig cfg;
  cfg.p = 0.02;
  const ChipFaultList list(snap, cfg, 3, cfg.p);
  EXPECT_GT(list.apply(snap, cfg.p), 0u);  // no ForensicsTrialScope
  obs::fault_ledger().set_enabled(false);
  EXPECT_EQ(obs::fault_ledger().totals().applies, 0u);
  obs::fault_ledger().clear();
}

// ------------------------------------------------------------ ledger content --

TEST(ForensicsLedger, ExactAgainstHashReference) {
  const std::size_t n_weights = 5000;
  const int bits = 8;
  const std::uint64_t chip = 42;
  const NetSnapshot clean = make_snapshot(n_weights, bits);
  BitErrorConfig cfg;
  cfg.p = 0.01;  // flip-only: every record must change exactly its bit

  obs::fault_ledger().clear();
  obs::fault_ledger().set_enabled(true);
  NetSnapshot snap = clean;
  std::size_t changed = 0;
  {
    const obs::ForensicsTrialScope scope(9, "exact");
    changed = ChipFaultList(clean, cfg, chip, cfg.p).apply(snap, cfg.p);
  }
  obs::fault_ledger().set_enabled(false);

  // The ledger must hold exactly the cells the stateless hash stream marks
  // faulty at p, in (token, tensor, index, bit) order.
  std::vector<std::pair<std::uint32_t, int>> expected;
  for (std::uint32_t i = 0; i < n_weights; ++i) {
    for (int b = 0; b < bits; ++b) {
      if (cell_faulty(chip, i, b, cfg.p)) expected.push_back({i, b});
    }
  }
  const std::vector<obs::FlipRecord> recs =
      obs::fault_ledger().records("exact");
  ASSERT_EQ(recs.size(), expected.size());
  ASSERT_GT(recs.size(), 0u);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    EXPECT_EQ(recs[k].token, 9u);
    EXPECT_EQ(recs[k].tensor, 0u);
    EXPECT_EQ(recs[k].index, expected[k].first);
    EXPECT_EQ(static_cast<int>(recs[k].bit), expected[k].second);
    EXPECT_EQ(static_cast<int>(recs[k].width), bits);
    EXPECT_EQ(static_cast<obs::BitClass>(recs[k].bit_class),
              obs::classify_bit(expected[k].second, bits));
    // A flip fault changes exactly its bit between the bracketing codes.
    EXPECT_EQ(recs[k].code_after,
              recs[k].code_before ^ (1u << recs[k].bit));
  }
  EXPECT_EQ(obs::fault_ledger().totals("exact").words_changed, changed);
  EXPECT_EQ(obs::registry().counter("forensics.flips").value() > 0, true);
  obs::fault_ledger().clear();
}

TEST(ForensicsLedger, ClassifyBitBoundaries) {
  using obs::BitClass;
  EXPECT_EQ(obs::classify_bit(7, 8), BitClass::kMsb);
  EXPECT_EQ(obs::classify_bit(6, 8), BitClass::kHigh);
  EXPECT_EQ(obs::classify_bit(4, 8), BitClass::kHigh);
  EXPECT_EQ(obs::classify_bit(3, 8), BitClass::kLow);
  EXPECT_EQ(obs::classify_bit(0, 8), BitClass::kLow);
  EXPECT_EQ(obs::classify_bit(1, 2), BitClass::kMsb);
  EXPECT_EQ(obs::classify_bit(0, 2), BitClass::kLow);
}

// -------------------------------------------------- counter reconciliation --

TEST(ForensicsCounters, LedgerReconcilesAcrossEvaluatorPaths) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f;
    RobustnessEvaluator ev(*f.model, QuantScheme::rquant(8));
    ev.set_compute_on_codes(mode.on_codes);
    obs::Counter& counter = obs::registry().counter("faults.words_patched");

    // Each campaign: fresh ledger, bracket the words_patched counter, and the
    // ledger's changed-word total must equal the counter delta exactly.
    const auto campaign = [&](const std::function<void()>& run) {
      obs::fault_ledger().clear();
      obs::fault_ledger().set_enabled(true);
      const std::uint64_t before = counter.value();
      run();
      obs::fault_ledger().set_enabled(false);
      const std::uint64_t delta = counter.value() - before;
      EXPECT_GT(delta, 0u);
      EXPECT_EQ(obs::fault_ledger().totals().words_changed, delta);
    };

    BitErrorConfig cfg;
    cfg.p = 0.02;
    const RandomBitErrorModel random(cfg);
    campaign([&] { ev.run(random, f.data, 3, 40); });
    campaign(
        [&] { ev.run_rate_sweep(random, {0.005, 0.01, 0.02}, f.data, 3, 40); });
    const ProfiledChipModel profiled(ProfiledChipConfig::chip1(), 0.9);
    campaign([&] { ev.run(profiled, f.data, 2, 40); });
    const std::vector<double> rates{profiled.rate_at_voltage(1.0),
                                    profiled.rate_at_voltage(0.9)};
    campaign([&] { ev.run_rate_sweep(profiled, rates, f.data, 2, 40); });
    const AdversarialBitErrorModel adversarial =
        random_flip_model(ev.snapshot(), 30, 2, 99);
    campaign([&] { ev.run(adversarial, f.data, 2, 40); });
    obs::fault_ledger().clear();
  });
}

// ----------------------------------------------------------------- probes ---

TEST(ForensicsProbes, DeterministicAcrossThreadCounts) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f(60);
    const QuantScheme scheme = QuantScheme::rquant(8);
    BitErrorConfig cfg;
    cfg.p = 0.02;
    const RandomBitErrorModel random(cfg);
    obs::Counter& counter = obs::registry().counter("faults.words_patched");

    // default_threads() reads BER_THREADS on every call, so the worker count
    // that claims the cells is swappable per campaign. `cells` is the number
    // of probed trial tokens the campaign produces.
    using Campaign = std::function<void(const RobustnessEvaluator&)>;
    const auto run_with_threads = [&](const char* threads, const Campaign& run,
                                      int cells) {
      const test::ScopedThreadsEnv scoped(threads);
      RobustnessEvaluator ev(*f.model, scheme);
      ev.set_compute_on_codes(mode.on_codes);
      obs::fault_ledger().clear();
      obs::fault_ledger().set_enabled(true);
      obs::ForensicsOptions fo;
      fo.probe_images = 16;
      obs::ForensicsCollector collector(fo);
      collector.prepare_probes(*f.model, ev.snapshot(), ev.compute_on_codes(),
                               f.data);
      EXPECT_TRUE(collector.probes_ready());
      ev.set_forensics(&collector, "eval");
      const std::uint64_t before = counter.value();
      run(ev);
      obs::fault_ledger().set_enabled(false);
      const Json j = collector.to_json(counter.value() - before);
      EXPECT_TRUE(j.at("counter_reconciles").as_bool());
      EXPECT_EQ(j.at("profiles").at("eval").at("probes").at("trials").as_int(),
                cells);
      return j.dump(2);
    };

    const Campaign run = [&](const RobustnessEvaluator& ev) {
      ev.run(random, f.data, 6, 30);
    };
    EXPECT_EQ(run_with_threads("1", run, 6), run_with_threads("4", run, 6));

    // A 3-point sweep: 18 cells that 4 workers claim in no fixed order.
    const Campaign sweep = [&](const RobustnessEvaluator& ev) {
      ev.run_rate_sweep(random, {0.005, 0.01, 0.02}, f.data, 6, 30);
    };
    const std::string sweep_one = run_with_threads("1", sweep, 18);
    EXPECT_EQ(sweep_one, run_with_threads("3", sweep, 18));
    EXPECT_EQ(sweep_one, run_with_threads("4", sweep, 18));
    obs::fault_ledger().clear();
  });
}

TEST(ForensicsProbes, RunMatchesOnePointSweep) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    // run() is the one-point grid of the sweep's trial loop: the same trial
    // tokens, so the same ledger rows, probe rows and per-trial errors.
    Fixture f(60);
    BitErrorConfig cfg;
    cfg.p = 0.02;
    const RandomBitErrorModel random(cfg);
    obs::Counter& counter = obs::registry().counter("faults.words_patched");
    const auto campaign =
        [&](const std::function<void(const RobustnessEvaluator&)>& run) {
          RobustnessEvaluator ev(*f.model, QuantScheme::rquant(8));
          ev.set_compute_on_codes(mode.on_codes);
          obs::fault_ledger().clear();
          obs::fault_ledger().set_enabled(true);
          obs::ForensicsOptions fo;
          fo.probe_images = 16;
          obs::ForensicsCollector collector(fo);
          collector.prepare_probes(*f.model, ev.snapshot(),
                                   ev.compute_on_codes(), f.data);
          ev.set_forensics(&collector, "eval");
          const std::uint64_t before = counter.value();
          run(ev);
          obs::fault_ledger().set_enabled(false);
          const Json j = collector.to_json(counter.value() - before);
          EXPECT_TRUE(j.at("counter_reconciles").as_bool());
          const Json& probes = j.at("profiles").at("eval").at("probes");
          EXPECT_EQ(probes.at("trials").as_int(), 5);
          return j.dump(2);
        };

    const std::string via_run = campaign(
        [&](const RobustnessEvaluator& ev) { ev.run(random, f.data, 5, 30); });
    const std::string via_sweep = campaign([&](const RobustnessEvaluator& ev) {
      ev.run_rate_sweep(random, {cfg.p}, f.data, 5, 30);
    });
    EXPECT_EQ(via_run, via_sweep);
    obs::fault_ledger().clear();
  });
}

// ------------------------------------------------------------- attribution --

TEST(ForensicsAttribution, AdversarialSeparatesFromRandomControl) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Fixture f(60);
    RobustnessEvaluator ev(*f.model, QuantScheme::rquant(8));
    ev.set_compute_on_codes(mode.on_codes);
    const NetSnapshot& layout = ev.snapshot();
    const int bits = layout.tensors[0].scheme.bits;

    // A worst-case-shaped attack: every flip on the sign/MSB of tensor 0 —
    // the profile Sec. 5.1's gradient attacks converge to.
    std::vector<std::vector<BitFlip>> attack_trials(2);
    for (std::uint32_t t = 0; t < 2; ++t) {
      for (std::uint32_t i = 0; i < 24; ++i) {
        attack_trials[t].push_back(
            {0, i * 7 + t, static_cast<std::uint8_t>(bits - 1)});
      }
    }
    const AdversarialBitErrorModel attack(std::move(attack_trials), "msb-test");
    const AdversarialBitErrorModel control =
        random_flip_model(layout, 24, 2, 777);

    obs::fault_ledger().clear();
    obs::fault_ledger().set_enabled(true);
    obs::ForensicsOptions fo;
    obs::ForensicsCollector collector(fo);
    obs::Counter& counter = obs::registry().counter("faults.words_patched");
    const std::uint64_t before = counter.value();
    ev.set_forensics(&collector, "eval");
    ev.run(attack, f.data, 2, 30);
    ev.set_forensics(&collector, "control");
    ev.run(control, f.data, 2, 30);
    ev.set_forensics(nullptr);
    obs::fault_ledger().set_enabled(false);

    const Json j = collector.to_json(counter.value() - before);
    EXPECT_TRUE(j.at("counter_reconciles").as_bool());
    const Json& eval_p = j.at("profiles").at("eval");
    const Json& ctrl_p = j.at("profiles").at("control");
    EXPECT_EQ(eval_p.at("trials").as_int(), 2);
    EXPECT_EQ(ctrl_p.at("trials").as_int(), 2);
    // The attack's flip mass sits entirely in the MSB class of one tensor;
    // the budget-matched random control spreads across bits and tensors.
    EXPECT_DOUBLE_EQ(eval_p.at("msb_fraction").as_number(), 1.0);
    EXPECT_DOUBLE_EQ(eval_p.at("top_tensor_fraction").as_number(), 1.0);
    EXPECT_LT(ctrl_p.at("msb_fraction").as_number(), 0.5);
    EXPECT_LT(ctrl_p.at("top_tensor_fraction").as_number(), 1.0);
    obs::fault_ledger().clear();
  });
}

// ---------------------------------------------------------- replay ledger --

TEST(AdversarialModel, ReplayLedgerPinned) {
  // Two bits of one word listed high bit first, a second word listed after
  // it with a lower index, and a second tensor listed first. The literals
  // pin the replay order: the ledger view sorts by bit, so the bit-1 row's
  // code_before (205, not the clean 141) shows that bit 6, listed first by
  // the attack, was applied first.
  NetSnapshot layout;
  layout.tensors.push_back(
      quantize(std::vector<float>{0.31f, -0.72f, 0.05f, 0.9f, -0.44f, 0.18f,
                                  -0.06f, 0.63f},
               QuantScheme::rquant(8)));
  layout.offsets.push_back(0);
  layout.tensors.push_back(
      quantize(std::vector<float>{-0.5f, 0.25f, 0.8f, -0.1f, 0.4f, -0.9f},
               QuantScheme::rquant(4)));
  layout.offsets.push_back(8);
  ASSERT_EQ(layout.tensors[0].codes,
            (std::vector<std::uint16_t>{161, 0, 121, 254, 44, 141, 103, 212}));
  ASSERT_EQ(layout.tensors[1].codes,
            (std::vector<std::uint16_t>{3, 9, 14, 7, 11, 0}));
  const AdversarialBitErrorModel fault({{BitFlip{1, 3, 2}, BitFlip{0, 5, 6},
                                         BitFlip{0, 5, 1}, BitFlip{0, 2, 7}}});

  obs::fault_ledger().clear();
  obs::fault_ledger().set_enabled(true);
  NetSnapshot snap = layout;
  std::size_t changed = 0;
  {
    const obs::ForensicsTrialScope scope(4, "replay");
    changed = fault.apply(snap, 0);
  }
  obs::fault_ledger().set_enabled(false);

  EXPECT_EQ(changed, 3u);
  EXPECT_EQ(snap.tensors[0].codes,
            (std::vector<std::uint16_t>{161, 0, 249, 254, 44, 207, 103, 212}));
  EXPECT_EQ(snap.tensors[1].codes,
            (std::vector<std::uint16_t>{3, 9, 14, 3, 11, 0}));
  struct Row {
    std::uint32_t tensor, index;
    int bit, width, bit_class;
    std::uint16_t before, after;
  };
  const std::vector<Row> expected{{0, 2, 7, 8, 2, 121, 249},
                                  {0, 5, 1, 8, 0, 205, 207},
                                  {0, 5, 6, 8, 1, 141, 205},
                                  {1, 3, 2, 4, 1, 7, 3}};
  const std::vector<obs::FlipRecord> recs =
      obs::fault_ledger().records("replay");
  ASSERT_EQ(recs.size(), expected.size());
  for (std::size_t k = 0; k < recs.size(); ++k) {
    EXPECT_EQ(recs[k].token, 4u) << k;
    EXPECT_EQ(recs[k].tensor, expected[k].tensor) << k;
    EXPECT_EQ(recs[k].index, expected[k].index) << k;
    EXPECT_EQ(recs[k].bit, expected[k].bit) << k;
    EXPECT_EQ(recs[k].width, expected[k].width) << k;
    EXPECT_EQ(recs[k].bit_class, expected[k].bit_class) << k;
    EXPECT_EQ(recs[k].code_before, expected[k].before) << k;
    EXPECT_EQ(recs[k].code_after, expected[k].after) << k;
  }
  const obs::FaultLedger::ProfileTotals totals =
      obs::fault_ledger().totals("replay");
  EXPECT_EQ(totals.flips, 4u);
  EXPECT_EQ(totals.words_changed, 3u);
  EXPECT_EQ(totals.applies, 1u);
  obs::fault_ledger().clear();
}

// ------------------------------------------------------------ spec section --

TEST(ForensicsSpec, ParsesRoundTripsAndValidates) {
  const char* text = R"({
    "name": "fx",
    "model": {"zoo": "c10_rquant"},
    "fault": {"model": "random", "p": 0.01},
    "eval": {"n_trials": 2,
             "forensics": {"probe_images": 8, "threshold": 1e-3}}
  })";
  const api::ExperimentSpec spec =
      api::ExperimentSpec::from_json(Json::parse(text));
  EXPECT_TRUE(spec.eval.forensics.enabled);
  EXPECT_EQ(spec.eval.forensics.probe_images, 8);
  EXPECT_DOUBLE_EQ(spec.eval.forensics.threshold, 1e-3);
  EXPECT_FALSE(spec.eval.forensics.control);
  // parse -> emit -> parse is the identity on the normalized form.
  const Json normalized = spec.to_json();
  EXPECT_EQ(api::ExperimentSpec::from_json(normalized).to_json().dump(),
            normalized.dump());

  // Unknown keys are rejected with the accepted ones listed.
  const char* bad = R"({
    "name": "fx",
    "model": {"zoo": "c10_rquant"},
    "fault": {"model": "random", "p": 0.01},
    "eval": {"forensics": {"probes": 8}}
  })";
  try {
    api::ExperimentSpec::from_json(Json::parse(bad));
    FAIL() << "unknown eval.forensics key must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("probes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("probe_images"), std::string::npos) << msg;
  }

  // Float-space faults have no code-space flips to record.
  const char* linf = R"({
    "name": "fx",
    "model": {"zoo": "c10_rquant"},
    "fault": {"model": "linf", "rel_eps": 0.05},
    "eval": {"forensics": {}}
  })";
  EXPECT_THROW(api::ExperimentSpec::from_json(Json::parse(linf)),
               std::invalid_argument);

  // The budget-matched control pass only exists for adversarial faults.
  const char* control = R"({
    "name": "fx",
    "model": {"zoo": "c10_rquant"},
    "fault": {"model": "random", "p": 0.01},
    "eval": {"forensics": {"control": true}}
  })";
  EXPECT_THROW(api::ExperimentSpec::from_json(Json::parse(control)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ber
