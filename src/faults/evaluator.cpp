#include "faults/evaluator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/parallel.h"
#include "eval/metrics.h"
#include "kernels/backend.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ber {

double StreamingMoments::sample_std() const {
  if (n_ == 0) return 0.0;
  const double m = mean();
  const double var = std::max(0.0, sumsq_ / n_ - m * m);
  return std::sqrt(var * n_ / std::max<long>(1, n_ - 1));
}

namespace {

RobustResult summarize(std::vector<float> errs,
                       const std::vector<float>& confs) {
  StreamingMoments err_moments, conf_moments;
  for (float e : errs) err_moments.add(e);
  for (float c : confs) conf_moments.add(c);
  RobustResult r;
  r.per_chip = std::move(errs);
  r.mean_rerr = static_cast<float>(err_moments.mean());
  r.std_rerr = static_cast<float>(err_moments.sample_std());
  r.mean_confidence = static_cast<float>(conf_moments.mean());
  return r;
}

// Runs fn(clone, trial) for trials [0, n) on a pool of workers, each owning
// one model clone for all of its trials. The caller's compute backend
// (thread-scoped overrides included) is captured here and re-installed on
// every worker thread.
template <typename PerTrial>
void run_trials(Sequential& model, int n_trials, const PerTrial& fn) {
  const kernels::Backend& backend = kernels::current_backend();
  const int threads =
      std::max(1, std::min(default_threads(), std::max(1, n_trials)));
  const std::int64_t chunk = (n_trials + threads - 1) / threads;
  parallel_for(threads, threads, [&](std::int64_t t) {
    const kernels::ScopedBackend backend_guard(backend);
    const std::int64_t lo = t * chunk;
    const std::int64_t hi = std::min<std::int64_t>(lo + chunk, n_trials);
    if (lo >= hi) return;
    Sequential clone(model);
    for (std::int64_t trial = lo; trial < hi; ++trial) fn(clone, trial);
  });
}

// Each evaluator mode takes exactly one fault space: a quantizing evaluator
// code-space models, a float-space evaluator weight-space models.
void require_space(const FaultModel& fault, bool quantizing) {
  const bool code_space = fault.space() == FaultSpace::kQuantizedCodes;
  if (code_space == quantizing) return;
  throw std::invalid_argument(
      code_space ? "RobustnessEvaluator: code-space fault models need a "
                   "quantizing evaluator (construct with a QuantScheme)"
                 : "RobustnessEvaluator: float-weight fault models need a "
                   "float-space evaluator (construct without a QuantScheme)");
}

// Injection-campaign telemetry. The per-fault-word hot loops inside
// ChipFaultList stay uninstrumented (bench_injection measures them raw);
// everything here is per-trial / per-sweep-point granularity.
struct EvalMetrics {
  obs::Counter& trials = obs::registry().counter("faults.trials");
  obs::Counter& fault_lists =
      obs::registry().counter("faults.fault_lists_built");
  obs::Counter& words_patched =
      obs::registry().counter("faults.words_patched");
  obs::Histogram& trial_us = obs::registry().histogram("faults.trial_us");
  obs::Histogram& sweep_point_us =
      obs::registry().histogram("faults.sweep_point_us");
};

EvalMetrics& eval_metrics() {
  static EvalMetrics m;
  return m;
}

}  // namespace

RobustnessEvaluator::RobustnessEvaluator(Sequential& model,
                                         const QuantScheme& scheme)
    : model_(model),
      base_snap_(NetQuantizer(scheme).quantize(model.params())),
      quantizing_(true) {}

RobustnessEvaluator::RobustnessEvaluator(Sequential& model) : model_(model) {}

RobustResult RobustnessEvaluator::run(const FaultModel& fault,
                                      const Dataset& data, int n_trials,
                                      long batch) const {
  require_space(fault, quantizing_);
  if (n_trials <= 0) return {};
  if (quantizing_) return run_cells(fault, nullptr, data, n_trials, batch)[0];
  // Float space: apply_weights accumulates, so every trial restarts from the
  // model's own weights, which nothing here modifies.
  const std::vector<Param*> pristine = model_.params();
  std::vector<float> errs(static_cast<std::size_t>(n_trials));
  std::vector<float> confs(static_cast<std::size_t>(n_trials));
  run_trials(model_, n_trials, [&](Sequential& clone, std::int64_t trial) {
    BER_TRACE_SCOPE_ARGS("faults", "trial", {"trial", trial});
    EvalMetrics& em = eval_metrics();
    em.trials.add(1);
    const obs::ScopedTimerUs timer(em.trial_us);
    const std::vector<Param*> params = clone.params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = pristine[i]->value;
    }
    fault.apply_weights(params, static_cast<std::uint64_t>(trial));
    const EvalResult r = evaluate(clone, data, batch);
    errs[static_cast<std::size_t>(trial)] = r.error;
    confs[static_cast<std::size_t>(trial)] = r.confidence;
  });
  return summarize(std::move(errs), confs);
}

std::vector<RobustResult> RobustnessEvaluator::run_rate_sweep(
    const FaultModel& fault, const std::vector<double>& rates,
    const Dataset& data, int n_trials, long batch) const {
  require_space(fault, quantizing_);
  require_persistent(fault, "RobustnessEvaluator::run_rate_sweep");
  if (rates.empty() || n_trials <= 0) return {};
  for (double p : rates) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("run_rate_sweep: rates must be in [0,1]");
    }
  }
  return run_cells(fault, &rates, data, n_trials, batch);
}

std::vector<RobustResult> RobustnessEvaluator::run_cells(
    const FaultModel& fault, const std::vector<double>* rates,
    const Dataset& data, int n_trials, long batch) const {
  // Exceptions from the workers reach this thread too, but checking here
  // fails before any trial starts.
  fault.validate_layout(base_snap_);
  const std::size_t n_points = rates == nullptr ? 1 : rates->size();
  const double p_max =
      rates == nullptr ? 0.0 : *std::max_element(rates->begin(), rates->end());
  std::vector<std::vector<float>> errs(n_points), confs(n_points);
  for (std::size_t r = 0; r < n_points; ++r) {
    errs[r].resize(static_cast<std::size_t>(n_trials));
    confs[r].resize(static_cast<std::size_t>(n_trials));
  }
  run_trials(model_, n_trials, [&](Sequential& clone, std::int64_t trial) {
    BER_TRACE_SCOPE_ARGS("faults", "chip_trial", {"trial", trial});
    EvalMetrics& em = eval_metrics();
    em.trials.add(1);
    const obs::ScopedTimerUs timer(em.trial_us);
    // A sweep builds one fault list per trial at the top of the grid; each
    // point keeps the subset of faults with u below its rate (persistence).
    std::optional<ChipFaultList> faults;
    if (rates != nullptr) {
      faults.emplace(
          fault.fault_list(base_snap_, static_cast<std::uint64_t>(trial), p_max));
      em.fault_lists.add(1);
    }
    const std::vector<ParamSlot> slots = param_slots(clone);
    for (std::size_t r = 0; r < n_points; ++r) {
      BER_TRACE_SCOPE_ARGS("faults", "sweep_point", {"point", r});
      const obs::ScopedTimerUs point_timer(em.sweep_point_us);
      // Point-distinct trial token: grid points of one trial are separate
      // injections with their own ledger / probe rows. For run() (one
      // point) it is the trial index itself.
      const std::uint64_t token =
          static_cast<std::uint64_t>(trial) * n_points + r;
      NetSnapshot snap = base_snap_;
      {
        const obs::ForensicsTrialScope fscope(token, forensics_profile_);
        em.words_patched.add(
            faults ? faults->apply(snap, (*rates)[r])
                   : fault.apply(snap, static_cast<std::uint64_t>(trial)));
      }
      deploy_snapshot(snap, slots, on_codes_);
      if (forensics_ != nullptr && forensics_->probes_ready()) {
        forensics_->probe_trial(clone, token, forensics_profile_);
      }
      const EvalResult res = evaluate(clone, data, batch);
      if (forensics_ != nullptr) {
        forensics_->record_trial_error(token, forensics_profile_, res.error);
      }
      errs[r][static_cast<std::size_t>(trial)] = res.error;
      confs[r][static_cast<std::size_t>(trial)] = res.confidence;
    }
  });
  std::vector<RobustResult> out;
  out.reserve(n_points);
  for (std::size_t r = 0; r < n_points; ++r) {
    out.push_back(summarize(std::move(errs[r]), confs[r]));
  }
  return out;
}

}  // namespace ber
