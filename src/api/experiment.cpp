#include "api/experiment.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/registry.h"
#include "api/zoo.h"
#include "eval/metrics.h"
#include "kernels/backend.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/replica_pool.h"
#include "tensor/ops.h"

namespace ber::api {

namespace {

Json robust_result_json(double x, const std::string& axis,
                        const RobustResult& r) {
  Json j = Json::object();
  if (!axis.empty()) j.set(axis, x);
  j.set("rerr_mean", static_cast<double>(r.mean_rerr));
  j.set("rerr_std", static_cast<double>(r.std_rerr));
  j.set("confidence", static_cast<double>(r.mean_confidence));
  return j;
}

}  // namespace

// ------------------------------------------------------------------ Report --

Json Report::to_json() const {
  Json j = Json::object();
  j.set("experiment", spec.name);
  j.set("kind", spec.kind);
  j.set("backend", spec.backend);
  j.set("spec", spec.to_json());
  if (spec.kind == "serve") {
    const ServeReport& s = serve;
    Json sj = Json::object();
    sj.set("clean_err", s.clean_err);
    Json slo = Json::object();
    slo.set("max_rerr", s.slo.max_rerr);
    slo.set("z", s.slo.z);
    sj.set("slo", slo);
    sj.set("planner", plan_to_json(s.plan, s.slo));
    Json fleet = Json::object();
    fleet.set("replicas", static_cast<long>(s.canary_errs.size()));
    Json errs = Json::array();
    double mean_err = 0.0;
    for (double e : s.canary_errs) {
      errs.push_back(e);
      mean_err += e;
    }
    if (!s.canary_errs.empty()) {
      mean_err /= static_cast<double>(s.canary_errs.size());
    }
    fleet.set("canary_errs", std::move(errs));
    fleet.set("mean_canary_err", mean_err);
    fleet.set("slo_ok", mean_err <= s.slo.max_rerr);
    fleet.set("energy_per_access", s.fleet_energy);
    fleet.set("energy_saving", 1.0 - s.fleet_energy);
    sj.set("fleet", std::move(fleet));
    if (s.requests > 0) {
      Json t = Json::object();
      t.set("requests", s.requests);
      t.set("answered", s.answered);
      t.set("rejected", s.rejected);
      t.set("mean_batch", s.mean_batch);
      sj.set("traffic", std::move(t));
    }
    if (!s.timeline.is_null()) sj.set("timeline", s.timeline);
    j.set("serve", std::move(sj));
    if (!metrics.is_null()) j.set("metrics", metrics);
    return j;
  }
  Json ms = Json::array();
  for (const ModelReport& m : models) {
    Json mj = Json::object();
    mj.set("name", m.name);
    mj.set("label", m.label);
    if (m.clean_err >= 0.0) mj.set("clean_err", m.clean_err);
    mj.set("fault", m.fault);
    Json points = Json::array();
    for (const ReportPoint& pt : m.points) {
      points.push_back(robust_result_json(pt.x, m.axis, pt.result));
    }
    mj.set("points", std::move(points));
    if (!m.forensics.is_null()) mj.set("forensics", m.forensics);
    ms.push_back(std::move(mj));
  }
  j.set("models", std::move(ms));
  if (!metrics.is_null()) j.set("metrics", metrics);
  return j;
}

// ------------------------------------------------------------------ Runner --

Runner::Runner(ExperimentSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

const Dataset& Runner::subset(const Dataset& full, long n) {
  n = std::min(n, full.size());
  std::unique_ptr<Dataset>& slot = subsets_[{&full, n}];
  if (slot == nullptr) slot = std::make_unique<Dataset>(full.head(n));
  return *slot;
}

int Runner::n_trials() const {
  return spec_.eval.n_trials > 0 ? spec_.eval.n_trials : zoo::default_chips();
}

Runner::ResolvedModel Runner::resolve(const ModelEntry& entry) {
  BER_TRACE_SCOPE("runner", "resolve");
  const ModelEntry& recipe = entry.is_zoo() ? zoo::spec(entry.zoo) : entry;
  ResolvedModel rm;
  rm.train_set = &zoo::dataset(recipe.dataset, "train");
  rm.test_set = &zoo::dataset(recipe.dataset, "test");
  if (recipe.dataset.source != "synthetic") {
    // File-backed geometry is only known once the files are read (shard
    // headers especially); a mismatch against the model section would
    // otherwise surface as a shape error deep inside the first forward.
    const ModelConfig& mc = recipe.model;
    for (const Dataset* d : {rm.train_set, rm.test_set}) {
      if (d->channels() != mc.in_channels || d->height() != mc.image_size ||
          d->width() != mc.image_size || d->num_classes != mc.num_classes) {
        throw std::invalid_argument(
            "experiment \"" + spec_.name + "\": dataset at \"" +
            recipe.dataset.path + "\" is [" + std::to_string(d->channels()) +
            "x" + std::to_string(d->height()) + "x" +
            std::to_string(d->width()) + "], " +
            std::to_string(d->num_classes) + " classes, but the model "
            "section says in_channels=" + std::to_string(mc.in_channels) +
            " image_size=" + std::to_string(mc.image_size) +
            " num_classes=" + std::to_string(mc.num_classes));
      }
    }
  }
  owned_models_.push_back(zoo::load_or_train(recipe));
  rm.model = owned_models_.back().get();
  rm.scheme = spec_.eval.has_quant_override ? spec_.eval.quant_override
                                            : recipe.quant;
  rm.name = recipe.name.empty() ? "inline" : recipe.name;
  rm.label = !entry.label.empty()    ? entry.label
             : !recipe.label.empty() ? recipe.label
                                     : rm.name;
  rm.eval_set = spec_.eval.split == "rerr"
                    ? &zoo::dataset(recipe.dataset, "rerr")
                    : rm.test_set;
  if (spec_.eval.subset > 0) {
    rm.eval_set = &subset(*rm.eval_set, spec_.eval.subset);
  }
  return rm;
}

Report Runner::run_robustness() {
  Report report;
  report.spec = spec_;
  const EvalSection& e = spec_.eval;
  const int n = n_trials();
  for (const ModelEntry& entry : spec_.models) {
    ResolvedModel rm = resolve(entry);
    BER_TRACE_SCOPE("runner", "robustness");
    ModelReport mr;
    mr.name = rm.name;
    mr.label = rm.label;
    if (e.clean_err) {
      mr.clean_err = test_error(*rm.model, *rm.test_set, &rm.scheme, e.batch);
    }

    const bool float_space = spec_.fault.model == "linf";
    std::optional<RobustnessEvaluator> evaluator;
    if (float_space) {
      evaluator.emplace(*rm.model);
    } else {
      evaluator.emplace(*rm.model, rm.scheme);
      evaluator->set_compute_on_codes(spec_.compute_on_codes);
    }
    FaultContext ctx;
    ctx.model = rm.model;
    ctx.scheme = &rm.scheme;
    ctx.attack_set = rm.train_set;
    ctx.n_trials = n;
    if (!float_space) ctx.layout = &evaluator->snapshot();

    // Opt-in fault forensics: a fresh ledger per model (sweeps accumulate
    // across points, models don't mix), probes prepared against the same
    // deployment mode the trials use, and the words_patched counter
    // bracketed so the report can reconcile ledger totals against it.
    // validate() already rejects forensics for float-space faults.
    const ForensicsSection& fx = e.forensics;
    const bool do_forensics = fx.enabled && !float_space;
    std::unique_ptr<obs::ForensicsCollector> collector;
    std::uint64_t words_before = 0;
    if (do_forensics) {
      obs::fault_ledger().clear();
      obs::fault_ledger().set_enabled(true);
      obs::ForensicsOptions fo;
      fo.probe_images = fx.probe_images;
      fo.divergence_threshold = fx.threshold;
      collector = std::make_unique<obs::ForensicsCollector>(fo);
      collector->prepare_probes(*rm.model, evaluator->snapshot(),
                                evaluator->compute_on_codes(), *rm.eval_set);
      evaluator->set_forensics(collector.get(), "eval");
      words_before = obs::registry().counter("faults.words_patched").value();
    }

    if (!e.rate_grid.empty() || !e.voltage_grid.empty()) {
      // One persistent sweep serves both axes: a voltage grid is the rate
      // grid the model's voltage curve maps it to.
      auto fault = make_fault_model(spec_.fault.model,
                                    resolved_fault_params(spec_, nullptr), ctx);
      const bool by_voltage = !e.voltage_grid.empty();
      const std::vector<double>& xs = by_voltage ? e.voltage_grid : e.rate_grid;
      std::vector<double> rates = xs;
      if (by_voltage) {
        for (double& v : rates) v = fault->rate_at_voltage(v);
      }
      mr.axis = by_voltage ? "v" : "p";
      mr.fault = fault->describe();
      const std::vector<RobustResult> sweep = evaluator->run_rate_sweep(
          *fault, rates, *rm.eval_set, n, e.batch);
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        mr.points.push_back({xs[i], sweep[i]});
      }
    } else if (!e.grid.empty()) {
      mr.axis = e.grid.param;
      for (const double value : e.grid.values) {
        auto fault = make_fault_model(spec_.fault.model,
                                      resolved_fault_params(spec_, &value), ctx);
        mr.fault = fault->describe();
        mr.points.push_back(
            {value, evaluator->run(*fault, *rm.eval_set, n, e.batch)});
      }
    } else {
      auto fault = make_fault_model(spec_.fault.model,
                                    resolved_fault_params(spec_, nullptr), ctx);
      mr.fault = fault->describe();
      mr.points.push_back(
          {0.0, evaluator->run(*fault, *rm.eval_set, n, e.batch)});
    }
    if (do_forensics) {
      if (fx.control) {
        // Budget-matched random control: the same flip budget on
        // hash-random cells, landing in the ledger under profile "control"
        // so the attack's bit-position profile has a baseline to stand
        // against in the same report.
        BER_TRACE_SCOPE("runner", "forensics_control");
        Json cparams = resolved_fault_params(spec_, nullptr);
        cparams.set("control", true);
        auto control = make_fault_model(spec_.fault.model, cparams, ctx);
        evaluator->set_forensics(collector.get(), "control");
        (void)evaluator->run(*control, *rm.eval_set, n, e.batch);
      }
      const std::uint64_t words_delta =
          obs::registry().counter("faults.words_patched").value() -
          words_before;
      mr.forensics = collector->to_json(words_delta);
      evaluator->set_forensics(nullptr);
      obs::fault_ledger().set_enabled(false);
    }
    report.models.push_back(std::move(mr));
  }
  return report;
}

Report Runner::run_serve() {
  Report report;
  report.spec = spec_;
  ServeReport& s = report.serve;
  const ServeSection& sv = spec_.serve;
  // Registered up front so the key exists (at zero) in every serve
  // snapshot — CI gates on it without a presence check.
  obs::Counter& shed = obs::registry().counter("serve.requests_shed");
  ResolvedModel rm = resolve(spec_.models.front());

  s.clean_err = test_error(*rm.model, *rm.test_set, &rm.scheme, spec_.eval.batch);
  s.slo.max_rerr = sv.slo.clean_plus >= 0.0 ? s.clean_err + sv.slo.clean_plus
                                            : sv.slo.max_rerr;
  s.slo.z = sv.slo.z;

  OperatingPointPlanner planner(*rm.model, rm.scheme);
  planner.set_compute_on_codes(spec_.compute_on_codes);
  FaultContext ctx;
  ctx.model = rm.model;
  ctx.scheme = &rm.scheme;
  ctx.n_trials = sv.n_chips;
  ctx.layout = &planner.evaluator().snapshot();
  auto fault = make_fault_model(spec_.fault.model,
                                resolved_fault_params(spec_, nullptr), ctx);

  {
    BER_TRACE_SCOPE("runner", "plan");
    s.plan = planner.plan(*fault, *rm.eval_set, sv.voltages, s.slo,
                          sv.n_chips, spec_.eval.batch);
  }
  std::vector<Replica> fleet;
  {
    BER_TRACE_SCOPE("runner", "deploy_fleet");
    fleet = planner.deploy_fleet(*fault, s.plan, sv.replicas);
  }

  const Dataset& canary_set = sv.canary_subset > 0
                                  ? subset(*rm.test_set, sv.canary_subset)
                                  : *rm.test_set;
  s.fleet_energy = planner.fleet_energy_per_access(fleet);
  s.requests = sv.requests;

  // A spec drives traffic open-loop or closed-loop, never both (validate()
  // enforces it). Driven traffic moves the fleet into one pool; the
  // canaries then run on whichever owns the replicas.
  std::optional<ReplicaPool> pool;
  if (sv.traffic.enabled() || sv.requests > 0) {
    pool.emplace(std::move(fleet), sv.queue);
  }
  if (sv.traffic.enabled()) {
    // Open-loop load: arrival-process schedules drive the pool on their own
    // clock (serve/traffic_gen.h); queueing delay and shed are properties
    // of the pool, not of a request-and-wait client. The scoreboard's
    // windowed timeline lands in the report.
    TrafficGenerator gen(*pool, *rm.test_set, sv.traffic);
    TrafficResult tr;
    {
      BER_TRACE_SCOPE_ARGS("runner", "traffic_open_loop",
                           {"phases", sv.traffic.phases.size()});
      tr = gen.run();
      pool->drain();
    }
    s.requests = static_cast<long>(tr.offered);
    s.answered = static_cast<long>(tr.answered);
    s.rejected = static_cast<long>(tr.shed);
    shed.add(0);  // key exists even if the generator never shed
    s.timeline = std::move(tr.timeline);
  } else if (sv.requests > 0) {
    // Drive single-image traffic through the dynamic-batching pool. With a
    // bounded queue (max_queue_images) submissions can be rejected; the
    // client retries with a short backoff (as a real load-shedding client
    // would) and counts a request as rejected only once the retry budget is
    // spent. Accepted requests must all answer (the no-loss contract).
    BER_TRACE_SCOPE_ARGS("runner", "traffic", {"requests", sv.requests});
    Tensor image;
    std::vector<int> labels;
    std::vector<std::future<std::vector<Prediction>>> futures;
    futures.reserve(static_cast<std::size_t>(sv.requests));
    for (long i = 0; i < sv.requests; ++i) {
      const long j = i % rm.test_set->size();
      rm.test_set->batch(j, j + 1, image, labels);
      Tensor single =
          image.reshaped({image.shape(1), image.shape(2), image.shape(3)});
      for (int attempt = 0;; ++attempt) {
        try {
          // Copy per attempt: a rejected submit consumes its argument.
          futures.push_back(pool->submit(single));
          break;
        } catch (const QueueFullError&) {
          // Budget ~100ms: several batch service times, so a shed means
          // the pool is genuinely stalled, not mid-drain.
          if (attempt >= 200) {
            // Shed = dropped after the whole retry budget, not a transient
            // queue-full (those are serve.queue_rejections).
            ++s.rejected;
            shed.add(1);
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
    }
    for (auto& f : futures) s.answered += static_cast<long>(f.get().size());
    pool->drain();
  }
  if (pool) s.mean_batch = pool->stats().mean_batch_images;

  BER_TRACE_SCOPE("runner", "canary");
  const std::size_t replicas = pool ? pool->size() : fleet.size();
  for (std::size_t i = 0; i < replicas; ++i) {
    Replica& r = pool ? pool->replica(i) : fleet[i];
    s.canary_errs.push_back(r.canary(canary_set).error);
  }
  return report;
}

Report Runner::run() {
  const kernels::ScopedBackend guard(kernels::backend(spec_.backend));
  BER_TRACE_SCOPE_ARGS("runner", "run", {"kind", spec_.kind.c_str()});
  Report report = spec_.kind == "serve" ? run_serve() : run_robustness();
  report.metrics = obs::registry().to_json();
  return report;
}

}  // namespace ber::api
