// Adversarial bit-flip attack engine tests: closed-form bit-saliency deltas
// against brute-force single-flip dequantization, budget schedules,
// deterministic (config, seed) -> flip-set reproduction, layout rejection
// paths of AdversarialBitErrorModel, gradient-capture hygiene, and the
// headline property — gradient-guided flips degrade a trained net at least
// as much as budget-matched random flips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "attack/attacker.h"
#include "attack/bit_saliency.h"
#include "core/rng.h"
#include "data/shapes.h"
#include "eval/metrics.h"
#include "faults/adversarial_model.h"
#include "faults/evaluator.h"
#include "models/factory.h"
#include "quant/quantizer.h"
#include "test_util.h"
#include "train/grad_capture.h"
#include "train/trainer.h"

namespace ber {
namespace {

using test::Mode;
using test::for_each_mode;
using test::kAllModes;
using test::kBackendModes;

// ------------------------------------------------------------- bit deltas ---

TEST(FlipDelta, MatchesBruteForceSingleFlipDequantization) {
  Rng rng(3);
  const QuantScheme schemes[] = {
      QuantScheme::normal(8),           QuantScheme::rquant(8),
      QuantScheme::rquant(4),           QuantScheme::rquant_trunc(6),
      QuantScheme::symmetric_rounded(8), QuantScheme::normal(2),
      QuantScheme::rquant(12),
  };
  for (const QuantScheme& scheme : schemes) {
    std::vector<float> w(257);
    for (auto& v : w) v = static_cast<float>(rng.uniform(-1.3, 0.9));
    const QuantizedTensor qt = quantize(w, scheme);
    for (std::size_t i = 0; i < qt.codes.size(); i += 3) {
      for (int bit = 0; bit < scheme.bits; ++bit) {
        const std::uint16_t flipped =
            qt.codes[i] ^ static_cast<std::uint16_t>(1u << bit);
        const float brute = decode_code(flipped, scheme, qt.range) -
                            decode_code(qt.codes[i], scheme, qt.range);
        const float closed = flip_delta(qt.codes[i], bit, scheme, qt.range);
        EXPECT_NEAR(closed, brute, 1e-4f * std::abs(brute) + 1e-6f)
            << scheme.str() << " code=" << qt.codes[i] << " bit=" << bit;
        // Sign agreement is what the greedy selection depends on.
        EXPECT_EQ(closed > 0.0f, brute > 0.0f)
            << scheme.str() << " code=" << qt.codes[i] << " bit=" << bit;
      }
    }
  }
}

TEST(FlipDelta, RejectsBitOutsideCodeWidth) {
  const QuantScheme scheme = QuantScheme::rquant(8);
  const QuantRange range{-1.0f, 1.0f};
  EXPECT_THROW(flip_delta(0, 8, scheme, range), std::invalid_argument);
  EXPECT_THROW(flip_delta(0, -1, scheme, range), std::invalid_argument);
}

// -------------------------------------------------------- budget schedules ---

TEST(AttackConfig, ValidationRejectsBadFields) {
  AttackConfig cfg;
  cfg.budget = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.rounds = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.rounds = 31;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.attack_examples = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(AttackConfig{}.validate());
}

TEST(AttackConfig, RoundFlipsSumToBudget) {
  for (BudgetSchedule schedule :
       {BudgetSchedule::kUniform, BudgetSchedule::kGeometric}) {
    for (int budget : {1, 7, 32, 100}) {
      for (int rounds : {1, 3, 4, 10}) {
        AttackConfig cfg;
        cfg.budget = budget;
        cfg.rounds = rounds;
        cfg.schedule = schedule;
        int sum = 0;
        for (int r = 0; r < rounds; ++r) {
          const int k = cfg.flips_in_round(r);
          EXPECT_GE(k, 0);
          sum += k;
        }
        EXPECT_EQ(sum, budget)
            << "schedule=" << static_cast<int>(schedule)
            << " budget=" << budget << " rounds=" << rounds;
      }
    }
  }
  // Geometric rounds are non-decreasing (bulk lands late).
  AttackConfig cfg;
  cfg.budget = 100;
  cfg.rounds = 5;
  cfg.schedule = BudgetSchedule::kGeometric;
  for (int r = 1; r < cfg.rounds; ++r) {
    EXPECT_GE(cfg.flips_in_round(r), cfg.flips_in_round(r - 1));
  }
}

// ------------------------------------------------------------- selection ---

TEST(TopFlips, PicksHighestGainCellsDeterministically) {
  // One tensor, unsigned 4-bit codes: flip_delta of bit k on a zero-bit is
  // +2^k * Delta. With gradient g_i on weight i, gains are g_i * 2^k * Delta
  // for unset bits.
  const QuantScheme scheme = QuantScheme::rquant(4);
  std::vector<float> w = {0.1f, 0.2f, 0.3f, 0.4f};
  NetSnapshot snap;
  snap.tensors.push_back(quantize(w, scheme));
  snap.offsets.push_back(0);
  std::vector<Tensor> grads;
  grads.push_back(Tensor::from_data({4}, {1.0f, -2.0f, 0.0f, 0.5f}));

  const auto top = top_flips(snap, grads, 3, {});
  ASSERT_EQ(top.size(), 3u);
  // Gains sorted descending, all positive.
  EXPECT_GT(top[0].gain, 0.0f);
  EXPECT_GE(top[0].gain, top[1].gain);
  EXPECT_GE(top[1].gain, top[2].gain);
  // Excluding the winner promotes the runner-up.
  const auto rest = top_flips(snap, grads, 2, {flip_key(top[0].flip)});
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].flip, top[1].flip);
  EXPECT_EQ(rest[1].flip, top[2].flip);
  // Zero-gradient weight never appears.
  for (const ScoredFlip& s : top) EXPECT_NE(s.flip.index, 2u);
}

TEST(TopFlips, RejectsMismatchedGradients) {
  NetSnapshot snap;
  snap.tensors.push_back(quantize(std::vector<float>{0.1f, 0.2f},
                                  QuantScheme::rquant(8)));
  snap.offsets.push_back(0);
  EXPECT_THROW(top_flips(snap, {}, 1, {}), std::invalid_argument);
  std::vector<Tensor> wrong;
  wrong.push_back(Tensor::from_data({3}, {1.0f, 1.0f, 1.0f}));
  EXPECT_THROW(top_flips(snap, wrong, 1, {}), std::invalid_argument);
}

// --------------------------------------------------------------- fixture ---

// One trained net per backend, shared across the expensive attack tests.
struct Trained {
  Dataset train_set, test_set;
  std::unique_ptr<Sequential> model;
  QuantScheme scheme = QuantScheme::rquant(8);

  explicit Trained(const char* backend) {
    SyntheticConfig dc = SyntheticConfig::mnist();
    dc.n_train = 400;
    dc.n_test = 200;
    train_set = make_synthetic(dc, true);
    test_set = make_synthetic(dc, false);
    ModelConfig mc;
    mc.arch = Arch::kMlp;
    mc.in_channels = 1;
    mc.width = 8;
    model = build_model(mc);
    TrainConfig tc;
    tc.quant = scheme;
    tc.epochs = 6;
    tc.batch_size = 50;
    tc.seed = 11;
    const kernels::ScopedBackend scoped(backend);
    train(*model, train_set, test_set, tc);
  }
};

// The net trained on `backend` (both are trained lazily, once).
Trained& trained(const std::string& backend = "reference") {
  if (backend == "blocked") {
    static Trained blocked("blocked");
    return blocked;
  }
  static Trained reference("reference");
  return reference;
}

// ----------------------------------------------------------- determinism ---

TEST(BitFlipAttacker, FlipSetReproducibleForFixedConfigAndSeed) {
  for_each_mode(kBackendModes, [&](const Mode& mode) {
    Trained& t = trained(mode.backend);
    AttackConfig cfg;
    cfg.budget = 20;
    cfg.rounds = 4;
    cfg.attack_examples = 100;
    cfg.seed = 9;
    const RobustnessEvaluator evaluator(*t.model, t.scheme);

    BitFlipAttacker a(*t.model, t.scheme, t.train_set, cfg);
    BitFlipAttacker b(*t.model, t.scheme, t.train_set, cfg);
    const AttackResult ra = a.attack(evaluator.snapshot());
    const AttackResult rb = b.attack(evaluator.snapshot());
    ASSERT_EQ(ra.flips.size(), rb.flips.size());
    EXPECT_EQ(ra.flips, rb.flips);
    EXPECT_EQ(ra.clean_loss, rb.clean_loss);
    EXPECT_EQ(ra.final_loss, rb.final_loss);
    // Rerunning the same attacker reproduces the set too (no hidden state).
    EXPECT_EQ(a.attack(evaluator.snapshot()).flips, ra.flips);

    EXPECT_LE(ra.flips.size(), static_cast<std::size_t>(cfg.budget));
    EXPECT_GT(ra.predicted_gain, 0.0f);
    // The attack increases the attack-batch loss.
    EXPECT_GT(ra.final_loss, ra.clean_loss);
  });
}

TEST(BitFlipAttacker, RejectsMismatchedSnapshot) {
  Trained& t = trained();
  AttackConfig cfg;
  BitFlipAttacker attacker(*t.model, t.scheme, t.train_set, cfg);
  NetSnapshot wrong;
  wrong.tensors.push_back(quantize(std::vector<float>{0.1f, 0.2f}, t.scheme));
  wrong.offsets.push_back(0);
  EXPECT_THROW(attacker.attack(wrong), std::invalid_argument);
}

// ----------------------------------------------- adversarial beats random ---

TEST(AdversarialAttack, DegradesAtLeastAsMuchAsRandomAtEqualBudget) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Trained& t = trained(mode.backend);
    RobustnessEvaluator evaluator(*t.model, t.scheme);
    evaluator.set_compute_on_codes(mode.on_codes);
    const float clean = test_error(*t.model, t.test_set, &t.scheme);

    AttackConfig cfg;
    cfg.budget = 40;
    cfg.rounds = 4;
    cfg.attack_examples = 200;
    cfg.seed = 1;
    BitFlipAttacker attacker(*t.model, t.scheme, t.train_set, cfg);
    const AdversarialBitErrorModel adv =
        make_adversarial_model(attacker, evaluator.snapshot(), 2);
    const RobustResult adv_r = evaluator.run(adv, t.test_set, 2);

    const AdversarialBitErrorModel rnd = random_flip_model(
        evaluator.snapshot(), static_cast<std::size_t>(cfg.budget),
        /*n_trials=*/6);
    const RobustResult rnd_r = evaluator.run(rnd, t.test_set, 6);

    // The gradient-guided flips must hurt, and hurt at least as much as the
    // budget-matched random control.
    EXPECT_GT(adv_r.mean_rerr, clean);
    EXPECT_GE(adv_r.mean_rerr, rnd_r.mean_rerr);
  });
}

TEST(AdversarialAttack, CampaignIsDeterministic) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Trained& t = trained(mode.backend);
    AttackConfig cfg;
    cfg.budget = 10;
    cfg.rounds = 2;
    cfg.attack_examples = 80;
    RobustnessEvaluator evaluator(*t.model, t.scheme);
    evaluator.set_compute_on_codes(mode.on_codes);
    // A fresh attacker per campaign: the flip sets, and so the RErr, must
    // reproduce bit for bit.
    const auto campaign = [&] {
      BitFlipAttacker attacker(*t.model, t.scheme, t.train_set, cfg);
      return evaluator.run(
          make_adversarial_model(attacker, evaluator.snapshot(), 2), t.test_set,
          2);
    };
    const RobustResult a = campaign();
    const RobustResult b = campaign();
    ASSERT_EQ(a.per_chip.size(), 2u);
    EXPECT_EQ(a.per_chip, b.per_chip);
  });
}

// ------------------------------------------------------- model validation ---

TEST(AdversarialBitErrorModel, ValidateLayoutRejectionPaths) {
  NetSnapshot layout;
  layout.tensors.push_back(
      quantize(std::vector<float>(10, 0.1f), QuantScheme::rquant(8)));
  layout.offsets.push_back(0);

  EXPECT_THROW(AdversarialBitErrorModel({}), std::invalid_argument);

  const AdversarialBitErrorModel bad_tensor({{BitFlip{1, 0, 0}}});
  EXPECT_THROW(bad_tensor.validate_layout(layout), std::invalid_argument);
  const AdversarialBitErrorModel bad_index({{BitFlip{0, 10, 0}}});
  EXPECT_THROW(bad_index.validate_layout(layout), std::invalid_argument);
  const AdversarialBitErrorModel bad_bit({{BitFlip{0, 0, 8}}});
  EXPECT_THROW(bad_bit.validate_layout(layout), std::invalid_argument);
  const AdversarialBitErrorModel ok({{BitFlip{0, 9, 7}}});
  EXPECT_NO_THROW(ok.validate_layout(layout));
}

TEST(AdversarialBitErrorModel, EvaluatorSurfacesLayoutErrorOnCallingThread) {
  Trained& t = trained();
  // A flip set built for a *different* (bigger) net must be rejected before
  // trials fan out to workers.
  const AdversarialBitErrorModel fault({{BitFlip{200, 0, 0}}});
  const RobustnessEvaluator evaluator(*t.model, t.scheme);
  EXPECT_THROW(evaluator.run(fault, t.test_set, 2), std::invalid_argument);
}

TEST(AdversarialBitErrorModel, AppliesFlipsAsXorAndWrapsTrials) {
  NetSnapshot layout;
  layout.tensors.push_back(
      quantize(std::vector<float>(8, 0.3f), QuantScheme::rquant(8)));
  layout.offsets.push_back(0);
  const AdversarialBitErrorModel fault(
      {{BitFlip{0, 1, 3}, BitFlip{0, 1, 0}}, {BitFlip{0, 5, 7}}});

  NetSnapshot snap = layout;
  EXPECT_EQ(fault.apply(snap, 0), 1u);  // two flips, one word changed
  EXPECT_EQ(snap.tensors[0].codes[1], layout.tensors[0].codes[1] ^ 0b1001);
  NetSnapshot snap2 = layout;
  EXPECT_EQ(fault.apply(snap2, 2), 1u);  // trial 2 wraps to set 0
  EXPECT_EQ(snap2.tensors[0].codes, snap.tensors[0].codes);
}

TEST(RandomFlipSet, BudgetedDistinctDeterministic) {
  NetSnapshot layout;
  layout.tensors.push_back(
      quantize(std::vector<float>(50, 0.2f), QuantScheme::rquant(4)));
  layout.offsets.push_back(0);
  layout.tensors.push_back(
      quantize(std::vector<float>(30, -0.4f), QuantScheme::rquant(8)));
  layout.offsets.push_back(50);

  const auto a = random_flip_set(layout, 25, 7);
  const auto b = random_flip_set(layout, 25, 7);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 25u);
  std::vector<std::uint64_t> keys;
  for (const BitFlip& f : a) {
    ASSERT_LT(f.tensor, 2u);
    const QuantizedTensor& qt = layout.tensors[f.tensor];
    ASSERT_LT(f.index, qt.codes.size());
    ASSERT_LT(f.bit, qt.scheme.bits);
    keys.push_back(flip_key(f));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());  // distinct
  EXPECT_NE(random_flip_set(layout, 25, 8), a);  // seed matters
  // 50*4 + 30*8 = 440 cells; budget above that is rejected.
  EXPECT_THROW(random_flip_set(layout, 441, 1), std::invalid_argument);
  EXPECT_NO_THROW(random_flip_set(layout, 440, 1));
}

// -------------------------------------------------------- gradient capture ---

TEST(GradCapture, LeavesModelStateUntouched) {
  for_each_mode(kBackendModes, [&](const Mode& mode) {
    Trained& t = trained(mode.backend);
    Sequential clone(*t.model);
    const auto params = clone.params();
    // Seed distinctive state to verify restoration.
    params[0]->grad.fill(3.5f);
    const float w0 = params[0]->value[0];
    const NetQuantizer quantizer(t.scheme);
    const NetSnapshot snap = quantizer.quantize(params);

    const GradCapture cap = capture_weight_gradients(
        clone, quantizer, snap, t.test_set.head(64), /*batch=*/32);
    EXPECT_GT(cap.loss, 0.0f);
    ASSERT_EQ(cap.grads.size(), params.size());
    // Returned gradients are real (not all zero).
    float norm = 0.0f;
    for (const Tensor& g : cap.grads) {
      for (long i = 0; i < g.numel(); ++i) norm += g[i] * g[i];
    }
    EXPECT_GT(norm, 0.0f);
    // Master weights and the caller's gradient accumulators survive.
    EXPECT_EQ(params[0]->value[0], w0);
    EXPECT_EQ(params[0]->grad[0], 3.5f);
  });
}

TEST(GradCapture, BatchSizeDoesNotChangeTheGradient) {
  for_each_mode(kBackendModes, [&](const Mode& mode) {
    Trained& t = trained(mode.backend);
    Sequential clone(*t.model);
    const NetQuantizer quantizer(t.scheme);
    const NetSnapshot snap = quantizer.quantize(clone.params());
    const Dataset subset = t.test_set.head(60);
    const GradCapture one = capture_weight_gradients(clone, quantizer, snap,
                                                     subset, /*batch=*/60);
    const GradCapture chunked = capture_weight_gradients(clone, quantizer, snap,
                                                         subset, /*batch=*/17);
    ASSERT_EQ(one.grads.size(), chunked.grads.size());
    EXPECT_NEAR(one.loss, chunked.loss, 1e-5f);
    for (std::size_t i = 0; i < one.grads.size(); ++i) {
      for (long j = 0; j < one.grads[i].numel(); ++j) {
        EXPECT_NEAR(one.grads[i][j], chunked.grads[i][j], 1e-5f);
      }
    }
  });
}

// A batch below 1 would never advance the chunk loop.
TEST(GradCapture, RejectsBatchBelowOne) {
  Trained& t = trained();
  Sequential clone(*t.model);
  const NetQuantizer quantizer(t.scheme);
  const NetSnapshot snap = quantizer.quantize(clone.params());
  const Dataset subset = t.test_set.head(8);
  for (const long batch : {0L, -1L}) {
    EXPECT_THROW(
        capture_weight_gradients(clone, quantizer, snap, subset, batch),
        std::invalid_argument)
        << batch;
  }
}

}  // namespace
}  // namespace ber
