// Open-loop traffic + SLO observability tests: arrival-schedule
// reproducibility (bit-identical for a fixed seed, regardless of which
// thread materializes it), the statistical shape of the three arrival
// processes, the generator driving a real ReplicaPool (offered ==
// answered + shed, windowed timeline emitted), and the report-diff rules
// behind `ber_run --baseline`.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "api/report_diff.h"
#include "core/rng.h"
#include "data/shapes.h"
#include "eval/metrics.h"
#include "faults/random_bit_error_model.h"
#include "models/factory.h"
#include "serve/planner.h"
#include "serve/replica_pool.h"
#include "serve/traffic_gen.h"
#include "test_util.h"
#include "train/trainer.h"

namespace ber {
namespace {

using test::Mode;
using test::for_each_mode;
using test::kAllModes;

// ------------------------------------------------- schedule determinism ---

ArrivalPhase poisson_phase(double rate, double dur) {
  ArrivalPhase p;
  p.process = "poisson";
  p.rate_rps = rate;
  p.duration_s = dur;
  return p;
}

TEST(ArrivalSchedule, BitReproducibleAcrossThreads) {
  ArrivalPhase phases[3];
  phases[0] = poisson_phase(200.0, 2.0);
  phases[1].process = "diurnal";
  phases[1].rate_rps = 200.0;
  phases[1].duration_s = 2.0;
  phases[1].period_s = 1.0;
  phases[1].amplitude = 0.7;
  phases[2].process = "bursty";
  phases[2].rate_rps = 200.0;
  phases[2].duration_s = 2.0;
  phases[2].mean_on_s = 0.05;
  phases[2].mean_off_s = 0.1;

  for (const ArrivalPhase& p : phases) {
    const std::vector<std::uint64_t> ref = arrival_schedule(p, 42);
    ASSERT_FALSE(ref.empty()) << p.process;
    // Same (phase, seed) from four concurrent threads: bit-identical. The
    // schedule is a pure function — no hidden global RNG, no time seeding.
    std::vector<std::vector<std::uint64_t>> got(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back(
          [&, t] { got[static_cast<std::size_t>(t)] = arrival_schedule(p, 42); });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& g : got) ASSERT_EQ(g, ref) << p.process;
    // A different seed is a different schedule.
    EXPECT_NE(arrival_schedule(p, 43), ref) << p.process;
    // Sorted, strictly inside [0, duration).
    for (std::size_t i = 1; i < ref.size(); ++i) {
      ASSERT_GE(ref[i], ref[i - 1]);
    }
    EXPECT_LT(ref.back(), static_cast<std::uint64_t>(p.duration_s * 1e6));
  }
}

TEST(ArrivalSchedule, PhaseSeedsComeFromOneStream) {
  // The generator derives per-phase seeds from one splitmix stream; pin the
  // derivation so appending a phase never perturbs earlier phases.
  Rng seeder(7);
  const std::uint64_t s0 = seeder.next_u64();
  const std::uint64_t s1 = seeder.next_u64();
  EXPECT_NE(s0, s1);
  Rng again(7);
  EXPECT_EQ(again.next_u64(), s0);
}

TEST(ArrivalSchedule, RejectsInvalidPhases) {
  ArrivalPhase p = poisson_phase(0.0, 1.0);
  EXPECT_THROW(arrival_schedule(p, 1), std::invalid_argument);
  p = poisson_phase(10.0, 1.0);
  p.process = "lunar";
  EXPECT_THROW(arrival_schedule(p, 1), std::invalid_argument);
  p.process = "diurnal";
  p.amplitude = 1.5;
  EXPECT_THROW(arrival_schedule(p, 1), std::invalid_argument);
  p.process = "bursty";
  p.amplitude = 0.5;
  p.mean_on_s = 0.0;
  EXPECT_THROW(arrival_schedule(p, 1), std::invalid_argument);
}

// ------------------------------------------------- statistical shape ---

TEST(ArrivalSchedule, PoissonHitsItsMeanRate) {
  const std::vector<std::uint64_t> s =
      arrival_schedule(poisson_phase(500.0, 4.0), 9);
  // E = 2000, sd = sqrt(2000) ~ 45; +-4 sigma. Deterministic for the fixed
  // seed — the bounds document the contract, they do not gamble.
  EXPECT_GT(s.size(), 1820u);
  EXPECT_LT(s.size(), 2180u);
}

TEST(ArrivalSchedule, DiurnalModulatesWithinThePeriod) {
  ArrivalPhase p;
  p.process = "diurnal";
  p.rate_rps = 300.0;
  p.duration_s = 2.0;
  p.period_s = 2.0;  // one full day: peak in the first half, trough second
  p.amplitude = 0.8;
  const std::vector<std::uint64_t> s = arrival_schedule(p, 21);
  std::size_t first = 0;
  for (const std::uint64_t t : s) first += (t < 1'000'000) ? 1 : 0;
  const std::size_t second = s.size() - first;
  // Mean rate over the halves is 300*(1 +- 0.8*2/pi) ~ 453 vs 147 rps.
  EXPECT_GT(first, 2 * second);
  // Long-run mean is still rate_rps * duration within ~4 sigma.
  EXPECT_NEAR(static_cast<double>(s.size()), 600.0, 100.0);
}

TEST(ArrivalSchedule, BurstyKeepsMeanButConcentrates) {
  ArrivalPhase p;
  p.process = "bursty";
  p.rate_rps = 200.0;
  p.duration_s = 10.0;
  p.mean_on_s = 0.1;
  p.mean_off_s = 0.1;
  const std::vector<std::uint64_t> s = arrival_schedule(p, 3);
  // Long-run mean preserved (ON rate = rate/duty): E = 2000, generous
  // bounds because on/off sojourns add variance beyond Poisson.
  EXPECT_GT(s.size(), 1200u);
  EXPECT_LT(s.size(), 2800u);
  // Burstiness: in 50ms bins, the densest bin runs well above the mean
  // (the ON-state rate is 2x the long-run rate).
  std::vector<int> bins(200, 0);
  for (const std::uint64_t t : s) {
    ++bins[std::min<std::size_t>(static_cast<std::size_t>(t / 50'000), 199)];
  }
  const double mean_bin =
      static_cast<double>(s.size()) / static_cast<double>(bins.size());
  const int max_bin = *std::max_element(bins.begin(), bins.end());
  EXPECT_GT(static_cast<double>(max_bin), 1.5 * mean_bin);
  // And some bins are silent (OFF states exist).
  EXPECT_NE(std::find(bins.begin(), bins.end(), 0), bins.end());
}

// ------------------------------------------- generator over a real pool ---

// One briefly RandBET-trained MLP per backend shared by the pool tests
// (same pattern as tests/test_serve.cpp).
struct Served {
  Dataset train_set, test_set;
  std::unique_ptr<Sequential> model;
  QuantScheme scheme = QuantScheme::rquant(8);

  // The MLP trained on `backend` (both are trained lazily, once).
  static Served& instance(const std::string& backend) {
    if (backend == "blocked") {
      static Served blocked("blocked");
      return blocked;
    }
    static Served reference("reference");
    return reference;
  }

 private:
  explicit Served(const char* backend) {
    auto cfg = SyntheticConfig::mnist();
    cfg.n_train = 400;
    cfg.n_test = 160;
    train_set = make_synthetic(cfg, true);
    test_set = make_synthetic(cfg, false);
    ModelConfig mc;
    mc.arch = Arch::kMlp;
    mc.in_channels = 1;
    mc.width = 8;
    model = build_model(mc);
    TrainConfig tc;
    tc.method = Method::kRandBET;
    tc.quant = scheme;
    tc.wmax = 0.3f;
    tc.p_train = 0.01;
    tc.bit_error_loss_threshold = 99.0f;
    tc.epochs = 4;
    tc.batch_size = 50;
    tc.sgd.lr = 0.1f;
    tc.augment.max_shift = 1;
    tc.augment.cutout = 0;
    tc.augment.noise_std = 0.0f;
    const kernels::ScopedBackend scoped(backend);
    train(*model, train_set, test_set, tc);
  }
};

std::vector<Replica> small_fleet(const Served& s,
                                 OperatingPointPlanner& planner,
                                 const RandomBitErrorModel& fault,
                                 const OperatingPointPlan& plan, int n) {
  auto base = std::make_shared<NetSnapshot>(planner.evaluator().snapshot());
  const NetQuantizer quantizer(QuantScheme::rquant(8));
  std::vector<Replica> fleet;
  fleet.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    fleet.emplace_back(r, *s.model, quantizer, base,
                       fault.fault_list(*base, /*trial=*/0,
                                        plan.grid.back().rate),
                       plan.voltages(), plan.rates(), plan.chosen,
                       planner.compute_on_codes());
  }
  return fleet;
}

OperatingPointPlan tiny_plan(const Served& s, OperatingPointPlanner& planner,
                             const RandomBitErrorModel& fault) {
  SloConfig slo;
  slo.max_rerr = 1.0;
  return planner.plan(fault, s.test_set, {1.0, 0.9}, slo,
                      /*n_chips=*/1, /*batch=*/80);
}

TEST(TrafficGenerator, OpenLoopAccountingAndTimeline) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    RandomBitErrorModel fault({0.001});
    const OperatingPointPlan plan = tiny_plan(s, planner, fault);
    ReplicaPool pool(small_fleet(s, planner, fault, plan, 2),
                     {/*max_batch=*/16, /*max_wait_us=*/200,
                      /*max_queue_images=*/256});

    TrafficConfig cfg;
    cfg.seed = 5;
    cfg.window_ms = 100;
    cfg.slo.latency_us = 200000.0;
    cfg.slo.attainment = 0.9;
    cfg.phases.push_back(poisson_phase(120.0, 0.4));
    ArrivalPhase bursty;
    bursty.process = "bursty";
    bursty.rate_rps = 120.0;
    bursty.duration_s = 0.4;
    bursty.mean_on_s = 0.05;
    bursty.mean_off_s = 0.05;
    cfg.phases.push_back(bursty);

    // The offered count is knowable up front: phase seeds come from one
    // splitmix stream over cfg.seed.
    Rng seeder(cfg.seed);
    std::uint64_t expect_offered = 0;
    for (const ArrivalPhase& p : cfg.phases) {
      expect_offered += arrival_schedule(p, seeder.next_u64()).size();
    }

    TrafficGenerator gen(pool, s.test_set, cfg);
    const TrafficResult r = gen.run();
    pool.drain();

    EXPECT_EQ(r.offered, expect_offered);
    EXPECT_EQ(r.answered + r.shed, r.offered);  // no request unaccounted
    EXPECT_GT(r.answered, 0u);
    // Open loop: wall clock covers the schedule span up to the last arrival.
    EXPECT_GE(r.duration_s, 0.35);

    ASSERT_TRUE(r.timeline.is_object());
    const Json& summary = r.timeline.at("summary");
    EXPECT_EQ(static_cast<std::uint64_t>(summary.at("offered").as_int()),
              r.offered);
    EXPECT_EQ(static_cast<std::uint64_t>(summary.at("shed").as_int()), r.shed);
    const Json& windows = r.timeline.at("windows");
    // ~0.8s of load at 100ms windows plus the drain tail.
    EXPECT_GE(windows.size(), 6u);
    std::uint64_t win_offered = 0, win_completed = 0;
    for (const Json& w : windows.items()) {
      win_offered += static_cast<std::uint64_t>(w.at("offered").as_int());
      win_completed += static_cast<std::uint64_t>(w.at("completed").as_int());
    }
    // Window columns tile the run exactly: no arrival or completion is
    // double-counted across boundaries.
    EXPECT_EQ(win_offered, r.offered);
    EXPECT_EQ(win_completed, r.answered);
  });
}

TEST(TrafficGenerator, ShedsOnAdmissionRejectionWithoutRetry) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    RandomBitErrorModel fault({0.001});
    const OperatingPointPlan plan = tiny_plan(s, planner, fault);
    // A 1-image queue in front of 1 replica at 600 rps: most arrivals find
    // the queue full. Open loop means they shed — no retries, no blocking.
    ReplicaPool pool(small_fleet(s, planner, fault, plan, 1),
                     {/*max_batch=*/1, /*max_wait_us=*/0,
                      /*max_queue_images=*/1});
    TrafficConfig cfg;
    cfg.seed = 11;
    cfg.window_ms = 100;
    cfg.phases.push_back(poisson_phase(600.0, 0.3));

    TrafficGenerator gen(pool, s.test_set, cfg);
    const TrafficResult r = gen.run();
    pool.drain();

    EXPECT_GT(r.shed, 0u);
    EXPECT_EQ(r.answered + r.shed, r.offered);
    // Shed arrivals poison the SLO verdict even if served latency was fine.
    const Json& summary = r.timeline.at("summary");
    EXPECT_FALSE(summary.at("slo_met").as_bool());
  });
}

// ------------------------------------------------------- report diffing ---

Json serve_report(double attainment, double p99_us, long shed, int seed) {
  Json spec = Json::object();
  spec.set("name", "t");
  spec.set("kind", "serve");
  spec.set("seed", seed);
  Json slo = Json::object();
  slo.set("latency_us", 100000.0);
  slo.set("attainment", 0.99);
  Json summary = Json::object();
  summary.set("offered", 100);
  summary.set("attainment", attainment);
  summary.set("p50_us", 500.0);
  summary.set("p99_us", p99_us);
  summary.set("shed", shed);
  summary.set("slo_met", attainment >= 0.99 && shed == 0);
  Json timeline = Json::object();
  timeline.set("slo", std::move(slo));
  timeline.set("summary", std::move(summary));
  Json serve = Json::object();
  serve.set("clean_err", 0.1);
  serve.set("timeline", std::move(timeline));
  Json j = Json::object();
  j.set("kind", "serve");
  j.set("spec", std::move(spec));
  j.set("serve", std::move(serve));
  return j;
}

TEST(ReportDiff, IdenticalReportsPass) {
  const Json r = serve_report(1.0, 800.0, 0, 1);
  const api::DiffResult d = api::diff_reports(r, r);
  EXPECT_TRUE(d.comparable);
  EXPECT_TRUE(d.ok());
  EXPECT_GT(d.checks, 0);
  EXPECT_TRUE(d.regressions.empty());
}

TEST(ReportDiff, AttainmentDropAndShedAreHard) {
  const Json base = serve_report(1.0, 800.0, 0, 1);
  const api::DiffResult drop =
      api::diff_reports(base, serve_report(0.95, 800.0, 0, 1));
  EXPECT_FALSE(drop.ok());
  const api::DiffResult shed =
      api::diff_reports(base, serve_report(1.0, 800.0, 5, 1));
  EXPECT_FALSE(shed.ok());
  // Within tolerance: a 1pp dip is not a regression.
  EXPECT_TRUE(api::diff_reports(base, serve_report(0.995, 800.0, 0, 1)).ok());
}

TEST(ReportDiff, LatencyHardOnlyWhenCrossingTheSloBound) {
  const Json base = serve_report(1.0, 800.0, 0, 1);
  // 800us -> 5ms: loud growth but far under the 100ms bound — warn only.
  const api::DiffResult grew =
      api::diff_reports(base, serve_report(1.0, 5000.0, 0, 1));
  EXPECT_TRUE(grew.ok());
  EXPECT_FALSE(grew.warnings.empty());
  // 800us -> 200ms: crossed the bound the baseline met — hard.
  const api::DiffResult crossed =
      api::diff_reports(base, serve_report(1.0, 200000.0, 0, 1));
  EXPECT_FALSE(crossed.ok());
}

TEST(ReportDiff, MismatchedSpecsAreIncomparableNotPassing) {
  const api::DiffResult d = api::diff_reports(serve_report(1.0, 800.0, 0, 1),
                                              serve_report(1.0, 800.0, 0, 2));
  EXPECT_FALSE(d.comparable);
  EXPECT_FALSE(d.ok());
  EXPECT_FALSE(d.incomparable_reason.empty());
}

TEST(ReportDiff, MissingGatedFieldFailsClosed) {
  const Json base = serve_report(1.0, 800.0, 0, 1);
  Json cur = base;
  Json serve = cur.at("serve");
  Json timeline = serve.at("timeline");
  Json summary = Json::object();  // summary lost all its fields
  timeline.set("summary", std::move(summary));
  serve.set("timeline", std::move(timeline));
  cur.set("serve", std::move(serve));
  const api::DiffResult d = api::diff_reports(base, cur);
  EXPECT_FALSE(d.ok());
}

TEST(ReportDiff, NonReportDocumentsThrow) {
  EXPECT_THROW(api::diff_reports(Json::object(), serve_report(1, 800, 0, 1)),
               JsonError);
  EXPECT_THROW(api::diff_reports(serve_report(1, 800, 0, 1), Json::parse("[]")),
               JsonError);
}

}  // namespace
}  // namespace ber
