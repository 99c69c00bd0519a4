// Serving-runtime tests: checkpoint round trips (plus BinaryReader
// corruption defenses), the operating-point selection rule, replica
// deploy/step-up bit-exactness (uniform random and profiled chips),
// BatchQueue coalescing and concurrent-producer correctness, and the
// HealthMonitor trip -> redeploy loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "api/experiment.h"
#include "api/registry.h"
#include "api/spec.h"
#include "core/serialize.h"
#include "data/shapes.h"
#include "eval/metrics.h"
#include "faults/profiled_chip_model.h"
#include "faults/random_bit_error_model.h"
#include "models/factory.h"
#include "nn/init.h"
#include "serve/batch_queue.h"
#include "serve/checkpoint.h"
#include "serve/health_monitor.h"
#include "serve/planner.h"
#include "serve/replica.h"
#include "serve/replica_pool.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "train/trainer.h"

namespace ber {
namespace {

using test::Mode;
using test::for_each_mode;
using test::kAllModes;
using test::kBackendModes;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// One briefly RandBET-trained MLP per backend, shared by every test in this
// binary (training each once keeps the suite fast; tests never mutate it).
struct Served {
  Dataset train_set, test_set;
  std::unique_ptr<Sequential> model;
  QuantScheme scheme = QuantScheme::rquant(8);
  float clean_err = 0.0f;

  // The MLP trained on `backend` (both are trained lazily, once).
  static Served& instance(const std::string& backend = "reference") {
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
    tc.epochs = 10;
    tc.batch_size = 50;
    tc.sgd.lr = 0.1f;
    tc.augment.max_shift = 1;
    tc.augment.cutout = 0;
    tc.augment.noise_std = 0.0f;
    const kernels::ScopedBackend scoped(backend);
    train(*model, train_set, test_set, tc);
    clean_err = test_error(*model, test_set, &scheme);
  }
};

std::unique_ptr<Sequential> same_arch() {
  ModelConfig mc;
  mc.arch = Arch::kMlp;
  mc.in_channels = 1;
  mc.width = 8;
  return build_model(mc);
}

void expect_params_equal(Sequential& a, Sequential& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (long j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j])
          << pa[i]->name << "[" << j << "]";
    }
  }
}

// ----------------------------------------------------------- checkpoints ---

TEST(Checkpoint, RoundTripWeightsAndScheme) {
  for_each_mode(kBackendModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    const std::string path = tmp_path("ckpt_roundtrip.bin");
    save_checkpoint(path, *s.model, s.scheme);

    auto loaded = same_arch();
    const QuantScheme scheme = load_checkpoint(path, *loaded);
    EXPECT_EQ(scheme, s.scheme);
    expect_params_equal(*s.model, *loaded);
    std::remove(path.c_str());
  });
}

TEST(Checkpoint, ArchitectureMismatchThrows) {
  Served& s = Served::instance();
  const std::string path = tmp_path("ckpt_mismatch.bin");
  save_checkpoint(path, *s.model, s.scheme);
  ModelConfig mc;
  mc.arch = Arch::kMlp;
  mc.in_channels = 1;
  mc.width = 12;  // different width -> different signature
  auto other = build_model(mc);
  EXPECT_THROW(load_checkpoint(path, *other), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileThrows) {
  Served& s = Served::instance();
  const std::string path = tmp_path("ckpt_full.bin");
  save_checkpoint(path, *s.model, s.scheme);

  // Rewrite the file at half length; loading must throw, not return garbage.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);
  const std::string cut = tmp_path("ckpt_truncated.bin");
  std::ofstream out(cut, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  auto loaded = same_arch();
  EXPECT_THROW(load_checkpoint(cut, *loaded), std::runtime_error);
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(Checkpoint, AbsurdLengthPrefixThrows) {
  // A length prefix promising far more payload than the file holds must be
  // rejected before any allocation is attempted.
  const std::string path = tmp_path("absurd_prefix.bin");
  {
    BinaryWriter w(path);
    w.write_pod<std::uint64_t>(0x7fffffffffffffffULL);
  }
  {
    BinaryReader r(path);
    EXPECT_THROW(r.read_string(), std::runtime_error);
  }
  {
    BinaryReader r(path);
    EXPECT_THROW(r.read_vector<float>(), std::runtime_error);
  }
  {
    // Truncated mid-POD.
    BinaryReader r(path);
    r.read_pod<std::uint32_t>();
    r.read_pod<std::uint32_t>();
    EXPECT_THROW(r.read_pod<std::uint64_t>(), std::runtime_error);
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------------- planner ----

RobustResult synthetic_rerr(float mean, float std) {
  RobustResult r;
  r.mean_rerr = mean;
  r.std_rerr = std;
  return r;
}

std::vector<GridPoint> synthetic_grid() {
  // Documented scenario: SLO band 0.10 with z=2. Upper bounds are
  // 0.05, 0.062, 0.09, 0.30 -> the last feasible (lowest-energy) point is
  // index 2 at 0.86 Vmin.
  const SramEnergyModel energy;
  std::vector<GridPoint> grid(4);
  const double voltages[] = {1.0, 0.92, 0.86, 0.80};
  const float means[] = {0.05f, 0.06f, 0.07f, 0.20f};
  const float stds[] = {0.0f, 0.001f, 0.01f, 0.05f};
  for (int i = 0; i < 4; ++i) {
    grid[i].voltage = voltages[i];
    grid[i].rate = energy.bit_error_rate(voltages[i]);
    grid[i].rerr = synthetic_rerr(means[i], stds[i]);
    grid[i].energy = energy.energy_per_access(voltages[i]);
  }
  return grid;
}

TEST(Planner, SelectsDocumentedVoltageOnSyntheticSweep) {
  SloConfig slo;
  slo.max_rerr = 0.10;
  slo.z = 2.0;
  const OperatingPointPlan plan = select_operating_point(synthetic_grid(), slo);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.chosen, 2u);
  EXPECT_DOUBLE_EQ(plan.chosen_point().voltage, 0.86);
  EXPECT_TRUE(plan.below_vmin);
  const SramEnergyModel energy;
  EXPECT_DOUBLE_EQ(plan.energy_saving,
                   energy.energy_saving_at_voltage(0.86));
  EXPECT_GT(plan.energy_saving, 0.2);
  // The SLO holds in expectation (and at the confidence level) at the
  // chosen point: ucb >= mean, and ucb <= max_rerr.
  EXPECT_LE(slo.upper_bound(plan.chosen_point().rerr), slo.max_rerr);
  EXPECT_LE(plan.chosen_point().rerr.mean_rerr, slo.max_rerr);
}

TEST(Planner, InfeasibleAtVminReportsNoSaving) {
  SloConfig slo;
  slo.max_rerr = 0.01;  // below even the Vmin error
  const OperatingPointPlan plan = select_operating_point(synthetic_grid(), slo);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.chosen, 0u);
  EXPECT_FALSE(plan.below_vmin);
  EXPECT_DOUBLE_EQ(plan.energy_saving, 0.0);
}

TEST(Planner, FeasibilityStopsAtFirstViolation) {
  // A noisy "feasible again further down" point must NOT be chosen: the walk
  // stops at the first violation (rates only grow below that voltage).
  auto grid = synthetic_grid();
  grid[1].rerr = synthetic_rerr(0.5f, 0.0f);   // infeasible
  grid[2].rerr = synthetic_rerr(0.01f, 0.0f);  // noise artifact
  SloConfig slo;
  slo.max_rerr = 0.10;
  const OperatingPointPlan plan = select_operating_point(grid, slo);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.chosen, 0u);
}

TEST(Planner, EndToEndPlansBelowVminForRobustModel) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = s.clean_err + 0.08;
    slo.z = 1.0;
    RandomBitErrorModel fault({/*p=*/0.01});
    const OperatingPointPlan plan = planner.plan(
        fault, s.test_set, {1.0, 0.95, 0.9, 0.85}, slo, /*n_chips=*/3);
    ASSERT_EQ(plan.grid.size(), 4u);
    // Rates follow the energy model and grow as voltage drops.
    const SramEnergyModel energy;
    for (std::size_t i = 0; i < plan.grid.size(); ++i) {
      EXPECT_DOUBLE_EQ(plan.grid[i].rate,
                       energy.bit_error_rate(plan.grid[i].voltage));
      if (i > 0) EXPECT_GE(plan.grid[i].rate, plan.grid[i - 1].rate);
    }
    // The RandBET-trained model must qualify below Vmin (at 0.95 the expected
    // fault count is < 1, so RErr there equals clean error).
    EXPECT_TRUE(plan.feasible);
    EXPECT_TRUE(plan.below_vmin);
    EXPECT_GT(plan.energy_saving, 0.0);
    EXPECT_LE(slo.upper_bound(plan.chosen_point().rerr), slo.max_rerr);
    // Deterministic: planning again gives the same sweep and pick.
    const OperatingPointPlan again = planner.plan(
        fault, s.test_set, {1.0, 0.95, 0.9, 0.85}, slo, /*n_chips=*/3);
    EXPECT_EQ(again.chosen, plan.chosen);
    for (std::size_t i = 0; i < plan.grid.size(); ++i) {
      EXPECT_EQ(again.grid[i].rerr.mean_rerr, plan.grid[i].rerr.mean_rerr);
    }
  });
}

// -------------------------------------------------------------- replicas ---

TEST(Replica, DeployMatchesManualInjection) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = 1.0;  // qualify everything: exercise a deep grid
    RandomBitErrorModel fault({0.01});
    const OperatingPointPlan plan =
        planner.plan(fault, s.test_set, {1.0, 0.9, 0.8}, slo, 2);
    std::vector<Replica> fleet = planner.deploy_fleet(fault, plan, 2);
    ASSERT_EQ(fleet.size(), 2u);

    // Serving weights must be exactly what a faulty chip at the operating
    // point would hold: base codes + trial-r faults at the chosen rate.
    const NetQuantizer quantizer(s.scheme);
    for (int r = 0; r < 2; ++r) {
      NetSnapshot snap = planner.evaluator().snapshot();
      const ChipFaultList list = fault.fault_list(
          snap, static_cast<std::uint64_t>(r), plan.grid.back().rate);
      list.apply(snap, plan.chosen_point().rate);
      auto reference = same_arch();
      quantizer.write_dequantized(snap, reference->params());
      expect_params_equal(fleet[static_cast<std::size_t>(r)].model(),
                          *reference);
    }
  });
}

// A kind:"serve" spec with fault "profiled", shared by the two tests below:
// a small chip-3 map so planning stays fast, an SLO loose enough that the
// plan goes below Vmin.
api::ExperimentSpec profiled_serve_spec() {
  return api::ExperimentSpec::from_json(Json::parse(R"({
    "name": "profiled_serve",
    "kind": "serve",
    "model": {
      "dataset": {"name": "mnist", "n_train": 300, "n_test": 120},
      "model": {"arch": "mlp", "width": 8},
      "quant": {"scheme": "rquant", "bits": 8},
      "train": {"method": "randbet", "wmax": 0.3, "p_train": 0.01,
                "epochs": 3, "batch_size": 50}
    },
    "fault": {"model": "profiled", "chip": "chip3", "rows": 512, "cols": 64},
    "eval": {"split": "test"},
    "serve": {"voltages": [1.0, 0.9, 0.85, 0.8],
              "slo": {"max_rerr": 1.0}, "n_chips": 2, "replicas": 2}
  })"));
}

TEST(Replica, ProfiledFleetDeploysChipMappingsAtPlannedVoltage) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    // The spec's fault, built the way the Runner builds it, plans through the
    // one persistent plan()/deploy_fleet() pair: rates follow the chip's own
    // voltage curve, and replica r holds exactly mapping r's faults at the
    // chosen voltage.
    Served& s = Served::instance(mode.backend);
    const api::ExperimentSpec spec = profiled_serve_spec();
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    api::FaultContext ctx;
    ctx.layout = &planner.evaluator().snapshot();
    const auto fault = api::make_fault_model(
        spec.fault.model, api::resolved_fault_params(spec, nullptr), ctx);
    const auto& profiled = dynamic_cast<const ProfiledChipModel&>(*fault);
    SloConfig slo;
    slo.max_rerr = spec.serve.slo.max_rerr;
    const OperatingPointPlan plan =
        planner.plan(*fault, s.test_set, spec.serve.voltages, slo,
                     spec.serve.n_chips);
    ASSERT_EQ(plan.grid.size(), spec.serve.voltages.size());
    for (const GridPoint& g : plan.grid) {
      EXPECT_EQ(g.rate, profiled.chip().model_rate_at(g.voltage));
    }
    ASSERT_TRUE(plan.below_vmin);

    std::vector<Replica> fleet =
        planner.deploy_fleet(*fault, plan, spec.serve.replicas);
    ASSERT_EQ(fleet.size(), 2u);
    const ProfiledChipModel at_chosen(profiled.chip(),
                                      plan.chosen_point().voltage);
    const NetQuantizer quantizer(s.scheme);
    for (int r = 0; r < 2; ++r) {
      NetSnapshot snap = planner.evaluator().snapshot();
      EXPECT_GT(at_chosen.apply(snap, static_cast<std::uint64_t>(r)), 0u);
      auto reference = same_arch();
      quantizer.write_dequantized(snap, reference->params());
      expect_params_equal(fleet[static_cast<std::size_t>(r)].model(),
                          *reference);
    }
  });
}

TEST(Replica, ProfiledServeSpecRunsEndToEnd) {
  const api::Report report = api::Runner(profiled_serve_spec()).run();
  const api::ServeReport& s = report.serve;
  const SramEnergyModel curve = ProfiledChipConfig::chip3().rate_model;
  ASSERT_EQ(s.plan.grid.size(), 4u);
  for (const GridPoint& g : s.plan.grid) {
    EXPECT_EQ(g.rate, curve.bit_error_rate(g.voltage));
  }
  EXPECT_TRUE(s.plan.feasible);
  EXPECT_EQ(s.canary_errs.size(), 2u);
  EXPECT_EQ(report.to_json().at("serve").at("fleet").at("replicas").as_int(),
            2);
}

// Traffic leaves every deterministic serve field alone: the canaries run on
// the same replicas after a closed-loop burst, an open-loop schedule or no
// traffic at all.
TEST(Replica, ServeCanariesIndependentOfTraffic) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    api::ExperimentSpec quiet = profiled_serve_spec();
    quiet.backend = mode.backend;
    quiet.compute_on_codes = mode.on_codes;
    api::ExperimentSpec burst = quiet;
    burst.serve.requests = 24;
    api::ExperimentSpec open = quiet;
    ArrivalPhase phase;
    phase.rate_rps = 200.0;
    phase.duration_s = 0.1;
    open.serve.traffic.phases.push_back(phase);

    const api::ServeReport base = api::Runner(quiet).run().serve;
    ASSERT_EQ(base.canary_errs.size(), 2u);
    EXPECT_EQ(base.answered, 0);
    for (const api::ExperimentSpec& spec : {burst, open}) {
      const api::ServeReport s = api::Runner(spec).run().serve;
      EXPECT_GT(s.answered, 0) << spec.serve.requests;
      EXPECT_EQ(s.answered + s.rejected, s.requests);
      EXPECT_EQ(s.clean_err, base.clean_err);
      EXPECT_EQ(s.plan.chosen, base.plan.chosen);
      EXPECT_EQ(s.canary_errs, base.canary_errs);
      EXPECT_EQ(s.fleet_energy, base.fleet_energy);
    }
  });
}

TEST(Replica, StepUpReusesListBitExactly) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = 1.0;
    RandomBitErrorModel fault({0.01});
    const OperatingPointPlan plan =
        planner.plan(fault, s.test_set, {1.0, 0.92, 0.86, 0.8}, slo, 1);
    std::vector<Replica> fleet = planner.deploy_fleet(fault, plan, 1);
    Replica& r = fleet[0];
    r.deploy(3);  // bottom of the grid
    // Walk back up; at every level the weights must match a fresh deploy
    // at that level (the persistence property in action — same list, lower
    // rate).
    std::size_t level = 3;
    while (r.step_up()) {
      --level;
      EXPECT_EQ(r.grid_index(), level);
      std::vector<Replica> fresh = planner.deploy_fleet(fault, plan, 1);
      fresh[0].deploy(level);
      expect_params_equal(r.model(), fresh[0].model());
    }
    EXPECT_EQ(r.grid_index(), 0u);
    EXPECT_FALSE(r.step_up());
    EXPECT_DOUBLE_EQ(r.point().voltage, 1.0);
  });
}

TEST(Replica, DeployByteAccountingHasNoDrift) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = 1.0;
    RandomBitErrorModel fault({0.01});
    const OperatingPointPlan plan =
        planner.plan(fault, s.test_set, {1.0, 0.92, 0.86, 0.8}, slo, 1);

    // Registry deltas (counters are process-cumulative) alongside the
    // per-replica DeployStats.
    obs::Counter& full_ctr =
        obs::registry().counter("serve.deploys", {{"kind", "full"}});
    obs::Counter& delta_ctr =
        obs::registry().counter("serve.deploys", {{"kind", "delta"}});
    obs::Counter& noop_ctr =
        obs::registry().counter("serve.deploys", {{"kind", "noop"}});
    obs::Counter& bytes_ctr = obs::registry().counter("serve.deploy_bytes");
    const std::uint64_t full0 = full_ctr.value();
    const std::uint64_t delta0 = delta_ctr.value();
    const std::uint64_t noop0 = noop_ctr.value();
    const std::uint64_t bytes0 = bytes_ctr.value();

    std::vector<Replica> fleet = planner.deploy_fleet(fault, plan, 1);
    Replica& r = fleet[0];
    const unsigned long long bpw =
        sizeof(std::uint16_t) + sizeof(float) + (r.compute_on_codes() ? 1 : 0);

    // Independent replay: mirror the replica's deploy sequence on a shadow
    // snapshot and account bytes as (#patched code words) x bytes/word. Any
    // drift between this and DeployStats.bytes_written is an accounting bug.
    const NetSnapshot base = planner.evaluator().snapshot();
    const ChipFaultList list =
        fault.fault_list(base, /*trial=*/0, plan.grid.back().rate);
    NetSnapshot shadow = base;
    list.apply(shadow, plan.chosen_point().rate);
    unsigned long long expected =
        static_cast<unsigned long long>(shadow.total_weights()) * bpw;
    EXPECT_EQ(r.deploy_stats().bytes_written, expected);

    const std::size_t seq[] = {3, 3, 1, 2, 0, plan.chosen};
    std::size_t cur = plan.chosen;
    for (const std::size_t next : seq) {
      r.deploy(next);
      if (next != cur) {
        std::vector<ChipFaultList::ChangedCode> changed;
        list.apply_delta(shadow, base, plan.grid[cur].rate,
                         plan.grid[next].rate, &changed);
        expected += changed.size() * bpw;
        cur = next;
      }
      EXPECT_EQ(r.deploy_stats().bytes_written, expected);
    }

    // The labeled registry counters moved in lockstep with DeployStats.
    const Replica::DeployStats& ds = r.deploy_stats();
    EXPECT_EQ(full_ctr.value() - full0,
              static_cast<std::uint64_t>(ds.deploys - ds.delta_deploys -
                                         ds.noop_deploys));
    EXPECT_EQ(delta_ctr.value() - delta0,
              static_cast<std::uint64_t>(ds.delta_deploys));
    EXPECT_EQ(noop_ctr.value() - noop0,
              static_cast<std::uint64_t>(ds.noop_deploys));
    EXPECT_EQ(bytes_ctr.value() - bytes0, ds.bytes_written);
  });
}

// ------------------------------------------------------------ batch queue --

TEST(BatchQueue, CoalescesUpToMaxBatchWithoutSplitting) {
  BatchQueue q({/*max_batch=*/8, /*max_wait_us=*/0});
  for (int i = 0; i < 5; ++i) q.submit(Tensor({1, 4, 4}));
  q.submit(Tensor({4, 1, 4, 4}));  // pre-batched, would overflow the budget
  WorkBatch first = q.pop();
  EXPECT_EQ(first.requests.size(), 5u);
  EXPECT_EQ(first.total_images, 5);
  WorkBatch second = q.pop();
  ASSERT_EQ(second.requests.size(), 1u);
  EXPECT_EQ(second.total_images, 4);
  EXPECT_EQ(q.depth(), 0);
}

TEST(BatchQueue, OversizedPrebatchedRequestRidesAlone) {
  BatchQueue q({/*max_batch=*/8, /*max_wait_us=*/0});
  q.submit(Tensor({20, 1, 4, 4}));
  q.submit(Tensor({1, 4, 4}));
  WorkBatch first = q.pop();
  ASSERT_EQ(first.requests.size(), 1u);
  EXPECT_EQ(first.total_images, 20);
  WorkBatch second = q.pop();
  EXPECT_EQ(second.total_images, 1);
}

TEST(BatchQueue, CloseDrainsThenReleasesConsumers) {
  BatchQueue q({8, 0});
  auto fut = q.submit(Tensor({1, 4, 4}));
  q.close();
  EXPECT_THROW(q.submit(Tensor({1, 4, 4})), std::runtime_error);
  WorkBatch wb = q.pop();  // queued work still drains
  ASSERT_EQ(wb.requests.size(), 1u);
  wb.requests[0].promise.set_value({Prediction{3, 1.0f}});
  EXPECT_EQ(fut.get()[0].label, 3);
  EXPECT_TRUE(q.pop().empty());  // and consumers are released
}

TEST(BatchQueue, RejectsMalformedInput) {
  BatchQueue q({8, 0});
  EXPECT_THROW(q.submit(Tensor({4, 4})), std::invalid_argument);
  EXPECT_THROW(q.submit(Tensor({0, 1, 4, 4})), std::invalid_argument);
}

TEST(BatchQueue, BoundedQueueRejectsOnFullWithTypedError) {
  BatchQueue q({/*max_batch=*/8, /*max_wait_us=*/0, /*max_queue_images=*/3});
  auto f0 = q.submit(Tensor({1, 4, 4}));
  auto f1 = q.submit(Tensor({2, 1, 4, 4}));  // backlog now 3 images (= bound)
  EXPECT_EQ(q.depth_images(), 3);
  // At the bound: single images and pre-batches both shed, queue untouched.
  EXPECT_THROW(q.submit(Tensor({1, 4, 4})), QueueFullError);
  EXPECT_THROW(q.submit(Tensor({2, 1, 4, 4})), QueueFullError);
  EXPECT_EQ(q.depth(), 2);
  EXPECT_EQ(q.depth_images(), 3);

  // The no-loss/no-dup contract holds for the ACCEPTED work: both requests
  // drain, in FIFO order, exactly once.
  WorkBatch wb = q.pop();
  ASSERT_EQ(wb.requests.size(), 2u);
  EXPECT_EQ(wb.requests[0].n_images, 1);
  EXPECT_EQ(wb.requests[1].n_images, 2);
  EXPECT_EQ(q.depth_images(), 0);

  // Popping freed the budget: submissions are admitted again.
  auto f2 = q.submit(Tensor({3, 1, 4, 4}));
  EXPECT_EQ(q.depth_images(), 3);
  // An oversized request against an EMPTY queue is still admitted (the
  // bound sheds backlog, it never makes a request impossible).
  (void)q.pop();
  auto f3 = q.submit(Tensor({9, 1, 4, 4}));
  EXPECT_EQ(q.depth_images(), 9);
}

TEST(BatchQueue, UnboundedByDefaultAndNegativeBoundRejected) {
  BatchQueue q({8, 0});  // max_queue_images defaults to 0 = unbounded
  for (int i = 0; i < 100; ++i) q.submit(Tensor({1, 4, 4}));
  EXPECT_EQ(q.depth_images(), 100);
  EXPECT_THROW(BatchQueue({8, 0, /*max_queue_images=*/-1}),
               std::invalid_argument);
}

// ------------------------------------------------------------ replica pool -

// Builds a fleet whose replicas all serve the SAME chip (trial 0), so
// predictions are independent of which replica handles a request.
std::vector<Replica> same_chip_fleet(const Sequential& model,
                                     OperatingPointPlanner& planner,
                                     const RandomBitErrorModel& fault,
                                     const OperatingPointPlan& plan, int n) {
  auto base = std::make_shared<NetSnapshot>(planner.evaluator().snapshot());
  const NetQuantizer quantizer(QuantScheme::rquant(8));
  std::vector<Replica> fleet;
  fleet.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    fleet.emplace_back(r, model, quantizer, base,
                       fault.fault_list(*base, /*trial=*/0,
                                        plan.grid.back().rate),
                       plan.voltages(), plan.rates(), plan.chosen,
                       planner.compute_on_codes());
  }
  return fleet;
}

TEST(ReplicaPool, ConcurrentProducersLoseNothingAndMatchSerial) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = 1.0;
    RandomBitErrorModel fault({0.005});
    const OperatingPointPlan plan =
        planner.plan(fault, s.test_set, {1.0, 0.9}, slo, 1);

    // Serial reference: the same deployed weights, one image per forward.
    std::vector<Replica> ref =
        same_chip_fleet(*s.model, planner, fault, plan, 1);
    const long n_images = 96;
    std::vector<Prediction> serial(static_cast<std::size_t>(n_images));
    Tensor image;
    std::vector<int> labels;
    for (long i = 0; i < n_images; ++i) {
      s.test_set.batch(i, i + 1, image, labels);
      Tensor probs = ref[0].forward(image);
      softmax_rows(probs);
      const long pred = argmax_row(probs, 0);
      serial[static_cast<std::size_t>(i)] = {static_cast<int>(pred),
                                             probs.at(0, pred)};
    }

    ReplicaPool pool(same_chip_fleet(*s.model, planner, fault, plan, 3),
                     {/*max_batch=*/16, /*max_wait_us=*/500});
    // 4 producers submit disjoint quarters concurrently; every request must be
    // answered exactly once with the serial result.
    std::vector<std::future<std::vector<Prediction>>> futures(
        static_cast<std::size_t>(n_images));
    std::atomic<int> mismatched_shape{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&, t] {
        Tensor img;
        std::vector<int> lbl;
        for (long i = t; i < n_images; i += 4) {
          s.test_set.batch(i, i + 1, img, lbl);
          const long c = img.shape(1), h = img.shape(2), w = img.shape(3);
          try {
            futures[static_cast<std::size_t>(i)] =
                pool.submit(img.reshaped({c, h, w}));
          } catch (const std::exception&) {
            ++mismatched_shape;
          }
        }
      });
    }
    for (auto& p : producers) p.join();
    EXPECT_EQ(mismatched_shape.load(), 0);

    long answered = 0;
    for (long i = 0; i < n_images; ++i) {
      auto preds = futures[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(preds.size(), 1u);
      ++answered;
      EXPECT_EQ(preds[0].label, serial[static_cast<std::size_t>(i)].label)
          << "image " << i;
      EXPECT_EQ(preds[0].confidence,
                serial[static_cast<std::size_t>(i)].confidence)
          << "image " << i;
    }
    EXPECT_EQ(answered, n_images);

    pool.drain();
    const ServingStats stats = pool.stats();
    EXPECT_EQ(stats.requests, n_images);
    EXPECT_EQ(stats.images, n_images);
    long per_replica_total = 0;
    for (long b : stats.per_replica_images) per_replica_total += b;
    EXPECT_EQ(per_replica_total, n_images);
    const obs::Histogram::Snapshot lat = pool.latency_histogram().snapshot();
    EXPECT_GE(lat.quantile(0.99), lat.quantile(0.50));
    EXPECT_GE(lat.quantile(0.999), lat.quantile(0.99));
    EXPECT_GT(lat.quantile(0.50), 0.0);

    // Every served request also landed in a per-replica registry histogram.
    std::uint64_t hist_count = 0;
    const Json snap = obs::registry().to_json();
    for (const auto& [key, value] : snap.at("histograms").members()) {
      if (key.rfind("serve.request_latency_us{", 0) == 0) {
        hist_count += static_cast<std::uint64_t>(value.at("count").as_int());
      }
    }
    EXPECT_GE(hist_count, static_cast<std::uint64_t>(n_images));
  });
}

TEST(ReplicaPool, PrebatchedTensorsReturnPerImagePredictions) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = 1.0;
    RandomBitErrorModel fault({0.005});
    const OperatingPointPlan plan =
        planner.plan(fault, s.test_set, {1.0, 0.9}, slo, 1);

    std::vector<Replica> ref =
        same_chip_fleet(*s.model, planner, fault, plan, 1);
    Tensor batch;
    std::vector<int> labels;
    s.test_set.batch(0, 10, batch, labels);
    Tensor probs = ref[0].forward(batch);
    softmax_rows(probs);

    ReplicaPool pool(same_chip_fleet(*s.model, planner, fault, plan, 2),
                     {32, 200});
    auto fut = pool.submit(batch);
    const auto preds = fut.get();
    ASSERT_EQ(preds.size(), 10u);
    for (long i = 0; i < 10; ++i) {
      const long pred = argmax_row(probs, i);
      EXPECT_EQ(preds[static_cast<std::size_t>(i)].label,
                static_cast<int>(pred));
      EXPECT_EQ(preds[static_cast<std::size_t>(i)].confidence,
                probs.at(i, pred));
    }
  });
}

TEST(ReplicaPool, UnforwardableRequestFailsItsFutureNotTheProcess) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    OperatingPointPlanner planner(*s.model, s.scheme);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = 1.0;
    RandomBitErrorModel fault({0.005});
    const OperatingPointPlan plan =
        planner.plan(fault, s.test_set, {1.0, 0.9}, slo, 1);
    ReplicaPool pool(same_chip_fleet(*s.model, planner, fault, plan, 2),
                     {8, 100});

    // First request: a shape the MLP cannot flatten-and-forward. The worker
    // must fail THIS future and keep serving.
    auto bad = pool.submit(Tensor({3, 5, 5}));
    EXPECT_THROW(bad.get(), std::exception);

    // The pool is still alive: a well-formed request... has a different image
    // shape than the first submission, so it is rejected at submit time; a
    // fresh pool serves it fine.
    EXPECT_THROW(pool.submit(Tensor({1, 12, 12})), std::invalid_argument);
    ReplicaPool pool2(same_chip_fleet(*s.model, planner, fault, plan, 1),
                      {8, 100});
    Tensor img;
    std::vector<int> lbl;
    s.test_set.batch(0, 1, img, lbl);
    auto ok = pool2.submit(img.reshaped({img.shape(1), img.shape(2),
                                         img.shape(3)}));
    EXPECT_EQ(ok.get().size(), 1u);
  });
}

TEST(ReplicaPool, MonitorRunsOnWorkersAndHealsDegradedReplicas) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    const QuantScheme fragile = QuantScheme::normal(8);
    OperatingPointPlanner planner(*s.model, fragile);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = 1.0;
    RandomBitErrorModel fault({0.25});
    const OperatingPointPlan plan =
        planner.plan(fault, s.test_set.head(40), {1.0, 0.9, 0.8, 0.75}, slo, 1);

    // Both replicas start DEGRADED at the bottom of the grid; every canary
    // check on a degraded replica must trip and step it up.
    std::vector<Replica> fleet = planner.deploy_fleet(fault, plan, 2);
    const std::size_t bottom = plan.grid.size() - 1;
    for (Replica& r : fleet) r.deploy(bottom);
    const float fragile_clean = test_error(*s.model, s.test_set, &fragile);
    HealthConfig hc;
    hc.max_err = fragile_clean + 0.1;
    hc.period_batches = 1;  // canary after every served batch
    HealthMonitor monitor(s.test_set.head(80), hc);

    ReplicaPool pool(std::move(fleet), {/*max_batch=*/8, /*max_wait_us=*/100},
                     &monitor);
    std::vector<std::future<std::vector<Prediction>>> futures;
    Tensor img;
    std::vector<int> lbl;
    for (long i = 0; i < 64; ++i) {
      s.test_set.batch(i, i + 1, img, lbl);
      futures.push_back(pool.submit(
          img.reshaped({img.shape(1), img.shape(2), img.shape(3)})));
    }
    for (auto& f : futures) f.get();
    pool.drain();

    // At least one worker served traffic, so at least one canary ran; every
    // trip stepped its (degraded) replica up the grid.
    ASSERT_GE(monitor.events().size(), 1u);
    EXPECT_GE(monitor.trips(), 1);
    for (const HealthEvent& ev : monitor.events()) {
      if (ev.tripped) EXPECT_GT(ev.voltage_after, ev.voltage_before);
    }
    bool any_stepped_up = false;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool.replica(i).grid_index() < bottom) any_stepped_up = true;
    }
    EXPECT_TRUE(any_stepped_up);
  });
}

// ---------------------------------------------------------- health monitor -

TEST(HealthMonitor, TripsOnDegradationAndRecoversBySteppingUp) {
  for_each_mode(kAllModes, [&](const Mode& mode) {
    Served& s = Served::instance(mode.backend);
    // Serve under the FRAGILE baseline scheme so an aggressive voltage
    // genuinely degrades accuracy (Tab. 1: signed symmetric codes break).
    const QuantScheme fragile = QuantScheme::normal(8);
    OperatingPointPlanner planner(*s.model, fragile);
    planner.set_compute_on_codes(mode.on_codes);
    SloConfig slo;
    slo.max_rerr = 1.0;
    RandomBitErrorModel fault({0.25});
    const OperatingPointPlan plan =
        planner.plan(fault, s.test_set.head(40), {1.0, 0.9, 0.8, 0.75}, slo, 1);
    std::vector<Replica> fleet = planner.deploy_fleet(fault, plan, 1);
    Replica& replica = fleet[0];
    replica.deploy(3);  // inject the degradation: p(0.75 Vmin) ~ 20%

    const float fragile_clean = test_error(*s.model, s.test_set, &fragile);
    HealthConfig hc;
    hc.max_err = fragile_clean + 0.1;
    hc.period_batches = 2;
    HealthMonitor monitor(s.test_set.head(80), hc);
    EXPECT_FALSE(monitor.due(1));
    EXPECT_TRUE(monitor.due(2));
    EXPECT_FALSE(monitor.due(3));

    // The degraded canary must trip and the monitor step the replica up until
    // it is back inside the band (guaranteed by Vmin at the top of the grid).
    HealthEvent ev = monitor.check(replica);
    EXPECT_TRUE(ev.tripped);
    EXPECT_TRUE(ev.stepped);
    EXPECT_GT(ev.voltage_after, ev.voltage_before);
    int guard = 0;
    while (monitor.check(replica).tripped && guard++ < 8) {
    }
    EXPECT_LE(replica.canary(s.test_set.head(80)).error, hc.max_err);
    EXPECT_GE(monitor.trips(), 1);
    const auto events = monitor.events();
    ASSERT_GE(events.size(), 2u);
    EXPECT_FALSE(events.back().tripped);
    // Voltage only ever moved up.
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].voltage_before, events[i - 1].voltage_before);
    }
  });
}

}  // namespace
}  // namespace ber
