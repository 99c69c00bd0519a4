#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "biterror/injector.h"
#include "core/hash.h"
#include "core/rng.h"
#include "eval/metrics.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/net_quantizer.h"

namespace ber {

void clip_weights(const std::vector<Param*>& params, float wmax) {
  if (wmax <= 0.0f) return;
  for (Param* p : params) p->value.clamp(-wmax, wmax);
}

namespace {

// One fake-quantized forward/backward accumulation: writes dequantized
// (optionally perturbed) weights, runs the pass, leaves gradients
// accumulated in the params. Master weights must be stashed by the caller.
LossStats quantized_pass(Sequential& model, const NetQuantizer& quantizer,
                         const NetSnapshot& snap,
                         const std::vector<Param*>& params, const Tensor& x,
                         std::span<const int> labels, float label_smoothing) {
  quantizer.write_dequantized(snap, params);
  Tensor logits = model.forward(x, /*training=*/true);
  LossStats stats = softmax_cross_entropy(logits, labels, label_smoothing);
  model.backward(stats.grad_logits);
  return stats;
}

}  // namespace

TrainStats train(Sequential& model, const Dataset& train_set,
                 const Dataset& test_set, const TrainConfig& config) {
  if (config.batch_size < 1) {
    throw std::invalid_argument("train: batch_size must be >= 1");
  }
  // Checked before the first epoch: an empty training set would average
  // the epoch loss over zero examples, and an empty test set would only
  // fail in the final test_error, after all the training.
  if (train_set.size() == 0) {
    throw std::invalid_argument("train: empty training set");
  }
  if (test_set.size() == 0) {
    throw std::invalid_argument("train: empty test set");
  }
  Rng rng(config.seed);
  he_init(model, rng);
  const std::vector<Param*> params = model.params();

  Sgd opt(params, config.sgd);
  MultiStepLr schedule{config.sgd.lr};
  schedule.warmup_epochs = config.lr_warmup_epochs;
  NetQuantizer quantizer(config.quant);
  WeightStash stash;

  const long n = train_set.size();
  std::vector<long> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0L);
  static obs::Counter& batches_produced =
      obs::registry().counter("data.batches_produced");

  TrainStats out;
  const bool uses_bit_errors =
      config.method == Method::kRandBET || config.method == Method::kPattBET;
  bool injection_active = false;
  int activation_epoch = -1;
  // The epoch's chip fault list, built lazily on the first injected batch
  // (PATTBET's chip never changes, so its list survives across epochs). The
  // list depends only on the snapshot layout — sizes and bit widths, which
  // are fixed for the whole run — never on the codes or ranges.
  std::optional<ChipFaultList> chip_faults;
  std::uint64_t chip_faults_seed = ~0ull;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    opt.set_lr(schedule.at(epoch, config.epochs));
    // Fisher-Yates shuffle from our deterministic stream.
    for (long i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<int>(i)))]);
    }

    double loss_sum = 0.0;
    long correct = 0, seen = 0;

    Tensor batch_images;
    std::vector<int> batch_labels;

    for (long start = 0; start < n; start += config.batch_size) {
      const long b = std::min<long>(config.batch_size, n - start);
      {
        BER_TRACE_SCOPE("train", "batch");
        // Gather the shuffled batch.
        const long stride =
            train_set.channels() * train_set.height() * train_set.width();
        batch_images = Tensor({b, train_set.channels(), train_set.height(),
                               train_set.width()});
        batch_labels.resize(static_cast<std::size_t>(b));
        for (long i = 0; i < b; ++i) {
          const long src = order[static_cast<std::size_t>(start + i)];
          std::copy(train_set.images.data() + src * stride,
                    train_set.images.data() + (src + 1) * stride,
                    batch_images.data() + i * stride);
          batch_labels[static_cast<std::size_t>(i)] =
              train_set.labels[static_cast<std::size_t>(src)];
        }
        batches_produced.add(1);
        augment_batch(batch_images, config.augment, rng);
      }

      // Projection before quantization (Alg. 1 line 6).
      clip_weights(params, config.wmax);
      model.zero_grad();

      LossStats clean_stats;
      if (config.quant_aware) {
        const NetSnapshot snap = [&] {
          BER_TRACE_SCOPE("train", "quantize");
          stash.save(params);
          return quantizer.quantize(params);
        }();
        {
          BER_TRACE_SCOPE("train", "clean_pass");
          clean_stats =
              quantized_pass(model, quantizer, snap, params, batch_images,
                             batch_labels, config.label_smoothing);
        }

        if (uses_bit_errors && injection_active) {
          double p_now = config.p_train;
          if (config.curricular && activation_epoch >= 0) {
            // Ramp p/20 -> p over the remaining epochs after activation.
            const double frac = std::min(
                1.0, static_cast<double>(epoch - activation_epoch + 1) /
                         std::max(1, (config.epochs - activation_epoch) / 2));
            p_now = config.p_train * (0.05 + 0.95 * frac);
          }
          const std::uint64_t chip =
              config.method == Method::kPattBET
                  ? config.pattern_seed
                  : hash_mix(config.seed, 0xB17E44ULL,
                             static_cast<std::uint64_t>(epoch));
          // Accumulates the gradients of the pass on `snap` with the
          // epoch's chip applied at p_now.
          const auto perturbed_pass = [&] {
            BER_TRACE_SCOPE("train", "perturbed_pass");
            // The epoch's chip fault list is built once and reapplied per
            // batch; persistence makes it byte-identical to re-hashing the
            // chip at p_now (u < p_now picks the same cells).
            if (!chip_faults || chip_faults_seed != chip) {
              BitErrorConfig bec;
              bec.p = config.p_train;
              chip_faults.emplace(snap, bec, chip, /*p_max=*/config.p_train);
              chip_faults_seed = chip;
            }
            NetSnapshot perturbed = snap;
            chip_faults->apply(perturbed, p_now);
            quantized_pass(model, quantizer, perturbed, params, batch_images,
                           batch_labels, config.label_smoothing);
          };

          if (config.alternating) {
            // Two separate updates: clean first, then perturbed with a
            // range projection so bit errors cannot grow the quantization
            // range (App. G.4 "alternating" variant).
            std::vector<float> pre_range(params.size());
            {
              BER_TRACE_SCOPE("train", "step");
              stash.restore(params);
              opt.step();
              clip_weights(params, config.wmax);
              for (std::size_t i = 0; i < params.size(); ++i) {
                pre_range[i] = params[i]->value.abs_max();
              }
              stash.save(params);
            }
            model.zero_grad();
            perturbed_pass();
            {
              BER_TRACE_SCOPE("train", "step");
              stash.restore(params);
              opt.step();
              for (std::size_t i = 0; i < params.size(); ++i) {
                if (pre_range[i] > 0.0f) {
                  params[i]->value.clamp(-pre_range[i], pre_range[i]);
                }
              }
              clip_weights(params, config.wmax);
            }
            loss_sum += clean_stats.loss * b;
            correct += clean_stats.correct;
            seen += b;
            continue;
          }
          // Standard RANDBET: accumulate perturbed gradients on top
          // (summed update, Alg. 1 line 16).
          perturbed_pass();
        }
      } else {
        // Plain float training (post-training quantization experiments).
        BER_TRACE_SCOPE("train", "clean_pass");
        Tensor logits = model.forward(batch_images, /*training=*/true);
        clean_stats = softmax_cross_entropy(logits, batch_labels,
                                            config.label_smoothing);
        model.backward(clean_stats.grad_logits);
      }

      {
        BER_TRACE_SCOPE("train", "step");
        if (config.quant_aware) stash.restore(params);
        opt.step();
        clip_weights(params, config.wmax);
      }

      loss_sum += clean_stats.loss * b;
      correct += clean_stats.correct;
      seen += b;
    }

    const float epoch_loss = static_cast<float>(loss_sum / seen);
    out.epoch_loss.push_back(epoch_loss);
    out.epoch_train_err.push_back(1.0f - static_cast<float>(correct) /
                                             static_cast<float>(seen));
    // Gate bit error injection on the clean loss (Sec. 4.3: "as soon as the
    // (clean) cross-entropy loss is below 1.75").
    if (uses_bit_errors && !injection_active &&
        epoch_loss < config.bit_error_loss_threshold) {
      injection_active = true;
      activation_epoch = epoch + 1;
      out.bit_error_start_epoch = activation_epoch;
    }
  }

  // Final projection + report clean test error of the quantized model.
  clip_weights(params, config.wmax);
  out.final_test_err = test_error(model, test_set,
                                  config.quant_aware ? &config.quant : nullptr);
  return out;
}

}  // namespace ber
