// Shared test helpers: execution modes, finite-difference gradient checking
// and tiny fixtures.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "faults/evaluator.h"
#include "kernels/backend.h"
#include "nn/layer.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace ber::test {

// ------------------------------------------------------ execution modes ---

// How a test computes: the compute backend, and whether code-space deploys
// run on the stored code words (the int8 datapath) instead of float
// evaluation of the dequantized weights. The library has no ambient mode —
// a test that depends on one names it.
struct Mode {
  const char* backend;
  bool on_codes;
  std::string name() const {
    return std::string(backend) + (on_codes ? "_codes" : "");
  }
};

inline constexpr Mode kReference{"reference", false};
inline constexpr Mode kBlocked{"blocked", false};
inline constexpr Mode kBlockedCodes{"blocked", true};

// Both backends, float deployment: tests that never deploy code words.
inline const std::vector<Mode> kBackendModes{kReference, kBlocked};
// Plus the int8 datapath: tests whose code-space deploys take the mode.
inline const std::vector<Mode> kAllModes{kReference, kBlocked, kBlockedCodes};

inline std::string mode_name(const ::testing::TestParamInfo<Mode>& info) {
  return info.param.name();
}

// Runs fn(mode) once per mode, with the mode's backend scoped on this
// thread (the evaluator and the serving pool carry it onto their workers)
// and the mode's name on every failure. fn passes mode.on_codes on itself:
// set_compute_on_codes, deploy_snapshot, a Replica argument or a spec.
template <class Fn>
void for_each_mode(const std::vector<Mode>& modes, Fn&& fn) {
  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name());
    const kernels::ScopedBackend backend(mode.backend);
    fn(mode);
  }
}

// A code-space evaluator of `model` that deploys its trials as `mode` says.
inline RobustnessEvaluator evaluator_in(const Mode& mode, Sequential& model,
                                        const QuantScheme& scheme) {
  RobustnessEvaluator evaluator(model, scheme);
  evaluator.set_compute_on_codes(mode.on_codes);
  return evaluator;
}

// Runs fn once on each of `participants` distinct threads of one
// parallel_for call (the caller plus pool workers): every chunk waits until
// all participants hold one, so no thread can take a second. Returns false
// when they did not all arrive within the timeout (a pool smaller than
// `participants`); fn still runs on every chunk's thread.
inline bool run_on_each_participant(int participants,
                                    const std::function<void()>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool all = true;
  parallel_for(participants, participants, [&](std::int64_t) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return arrived >= participants; })) {
        all = false;
      }
    }
    fn();
  });
  return all;
}

// Scalar loss used for gradient checks: weighted sum of outputs with fixed
// pseudo-random weights, so every output element contributes.
inline double probe_loss(const Tensor& y, const Tensor& probe) {
  double s = 0.0;
  for (long i = 0; i < y.numel(); ++i) s += static_cast<double>(y[i]) * probe[i];
  return s;
}

// Checks d(probe_loss)/d(x) and d(probe_loss)/d(params) of `layer` against
// central finite differences. Layers must be deterministic.
inline void gradcheck_layer(Layer& layer, const Tensor& x, double tol = 2e-2,
                            double eps = 1e-3) {
  Rng rng(99);
  Tensor y = layer.forward(x, /*training=*/true);
  Tensor probe = Tensor::uniform(y.shape(), rng, -1.0f, 1.0f);

  layer.zero_grad();
  Tensor grad_in = layer.backward(probe);

  // Input gradient.
  Tensor xm = x;
  for (long i = 0; i < x.numel(); ++i) {
    const float orig = xm[i];
    xm[i] = orig + static_cast<float>(eps);
    const double lp = probe_loss(layer.forward(xm, false), probe);
    xm[i] = orig - static_cast<float>(eps);
    const double lm = probe_loss(layer.forward(xm, false), probe);
    xm[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grad_in[i], num, tol * std::max(1.0, std::abs(num)))
        << "input grad mismatch at " << i;
  }

  // Parameter gradients (subsample large tensors to keep tests fast).
  for (Param* p : layer.params()) {
    const long n = p->value.numel();
    const long stride = std::max(1L, n / 24);
    for (long i = 0; i < n; i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + static_cast<float>(eps);
      const double lp = probe_loss(layer.forward(x, false), probe);
      p->value[i] = orig - static_cast<float>(eps);
      const double lm = probe_loss(layer.forward(x, false), probe);
      p->value[i] = orig;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], num, tol * std::max(1.0, std::abs(num)))
          << "param grad mismatch: " << p->name << "[" << i << "]";
    }
  }
}

// Forward output, input grad and param grads of one training step with a
// fixed pseudo-random upstream gradient.
struct LayerStep {
  std::vector<float> out, grad_in, grads;
};

inline std::vector<float> values(const Tensor& t) {
  return {t.data(), t.data() + t.numel()};
}

// Backward of `layer` from its training forward output `y`.
inline LayerStep backward_step(Layer& layer, const Tensor& y) {
  Rng rng(5);
  const Tensor go = Tensor::randn(y.shape(), rng);
  LayerStep s{values(y), values(layer.backward(go)), {}};
  for (Param* p : layer.params()) {
    const std::vector<float> g = values(p->grad);
    s.grads.insert(s.grads.end(), g.begin(), g.end());
  }
  return s;
}

inline LayerStep train_step(Layer& layer, const Tensor& x) {
  layer.zero_grad();
  const Tensor y = layer.forward(x, /*training=*/true);
  return backward_step(layer, y);
}

inline bool same_bits(const std::vector<float>& a,
                      const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

inline bool same_step(const LayerStep& a, const LayerStep& b) {
  return same_bits(a.out, b.out) && same_bits(a.grad_in, b.grad_in) &&
         same_bits(a.grads, b.grads);
}

// Sets BER_THREADS, which default_threads() reads on every call, for its
// lifetime, then restores the caller's value (CI runs whole suites under a
// fixed BER_THREADS). The pool is created first, at the caller's size:
// BER_THREADS sizes it once, at creation, and a scoped value must not.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* threads) {
    parallel_for(2, 2, [](std::int64_t) {});
    if (const char* prev = std::getenv("BER_THREADS")) prev_ = prev;
    setenv("BER_THREADS", threads, 1);
  }
  ~ScopedThreadsEnv() {
    if (prev_.empty()) {
      unsetenv("BER_THREADS");
    } else {
      setenv("BER_THREADS", prev_.c_str(), 1);
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  std::string prev_;
};

// A training step at BER_THREADS 3 and 4 (read per call by the intra-op
// gate) matches the step at 1 thread bit for bit.
inline void expect_thread_invariant(Layer& layer, const Tensor& x) {
  const LayerStep one = [&] {
    const ScopedThreadsEnv threads("1");
    return train_step(layer, x);
  }();
  for (const char* threads : {"3", "4"}) {
    const ScopedThreadsEnv scoped(threads);
    EXPECT_TRUE(same_step(train_step(layer, x), one))
        << layer.name() << " at " << threads << " threads";
  }
}

}  // namespace ber::test
