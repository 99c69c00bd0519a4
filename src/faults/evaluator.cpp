#include "faults/evaluator.h"

#include <algorithm>
#include <atomic>
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

// Runs fn(clone, cell) for cells [0, n_cells) on a pool of workers that
// claim cells one at a time until none are left, so no worker idles while
// another still has a backlog. A worker clones the model at its first claim
// and reuses that clone for every later cell (each cell overwrites all of
// its weights). Which worker runs a cell varies from call to call, so fn
// must write its results to slots fixed by the cell index. The caller's
// compute backend (thread-scoped overrides included) is captured here and
// re-installed on every worker thread. A throwing cell stops further claims;
// parallel_for rethrows the exception on the caller.
template <typename PerCell>
void run_on_pool(Sequential& model, std::int64_t n_cells, const PerCell& fn) {
  const kernels::Backend& backend = kernels::current_backend();
  const int threads = static_cast<int>(std::max<std::int64_t>(
      1, std::min<std::int64_t>(default_threads(), n_cells)));
  std::atomic<std::int64_t> next{0};
  parallel_for(threads, threads, [&](std::int64_t) {
    const kernels::ScopedBackend backend_guard(backend);
    std::optional<Sequential> clone;
    for (std::int64_t cell = next.fetch_add(1); cell < n_cells;
         cell = next.fetch_add(1)) {
      if (!clone) clone.emplace(model);
      try {
        fn(*clone, cell);
      } catch (...) {
        next.store(n_cells);
        throw;
      }
    }
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
// everything here is per-chip or per-cell granularity.
struct EvalMetrics {
  obs::Counter& trials = obs::registry().counter("faults.trials");
  obs::Counter& fault_lists =
      obs::registry().counter("faults.fault_lists_built");
  obs::Counter& words_patched =
      obs::registry().counter("faults.words_patched");
  obs::Histogram& trial_us = obs::registry().histogram("faults.trial_us");
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
  run_on_pool(model_, n_trials, [&](Sequential& clone, std::int64_t trial) {
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
  EvalMetrics& em = eval_metrics();
  em.trials.add(static_cast<std::uint64_t>(n_trials));
  // A sweep builds every chip's fault list up front, once, at the top of the
  // grid; each point keeps the subset of faults with u below its rate
  // (persistence), so the cells of one chip share its list.
  std::vector<std::optional<ChipFaultList>> lists;
  if (rates != nullptr) {
    lists.resize(static_cast<std::size_t>(n_trials));
    parallel_for(n_trials, [&](std::int64_t trial) {
      lists[static_cast<std::size_t>(trial)].emplace(fault.fault_list(
          base_snap_, static_cast<std::uint64_t>(trial), p_max));
      em.fault_lists.add(1);
    });
  }
  // Cell c is (trial c / n_points, point c % n_points). Its trial token is
  // c itself: grid points of one trial are separate injections with their
  // own ledger / probe rows, and for run() (one point) c is the trial.
  const std::int64_t n_cells = static_cast<std::int64_t>(n_points) * n_trials;
  run_on_pool(model_, n_cells, [&](Sequential& clone, std::int64_t cell) {
    const std::size_t trial = static_cast<std::size_t>(cell) / n_points;
    const std::size_t r = static_cast<std::size_t>(cell) % n_points;
    BER_TRACE_SCOPE_ARGS("faults", "chip_trial", {"trial", trial},
                         {"point", r});
    const obs::ScopedTimerUs timer(em.trial_us);
    BER_TRACE_SCOPE_ARGS("faults", "sweep_point", {"point", r});
    const std::uint64_t token = static_cast<std::uint64_t>(cell);
    NetSnapshot snap = base_snap_;
    {
      const obs::ForensicsTrialScope fscope(token, forensics_profile_);
      em.words_patched.add(rates != nullptr
                               ? lists[trial]->apply(snap, (*rates)[r])
                               : fault.apply(snap, trial));
    }
    deploy_snapshot(snap, param_slots(clone), on_codes_);
    if (forensics_ != nullptr && forensics_->probes_ready()) {
      forensics_->probe_trial(clone, token, forensics_profile_);
    }
    const EvalResult res = evaluate(clone, data, batch);
    if (forensics_ != nullptr) {
      forensics_->record_trial_error(token, forensics_profile_, res.error);
    }
    errs[r][trial] = res.error;
    confs[r][trial] = res.confidence;
  });
  std::vector<RobustResult> out;
  out.reserve(n_points);
  for (std::size_t r = 0; r < n_points; ++r) {
    out.push_back(summarize(std::move(errs[r]), confs[r]));
  }
  return out;
}

}  // namespace ber
