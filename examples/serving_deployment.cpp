// End-to-end fault-aware serving: train -> plan -> serve -> degrade ->
// recover.
//
// A RandBET-trained model is checkpointed (weights + scheme), an
// OperatingPointPlanner picks the lowest-energy voltage that meets an
// accuracy SLO, a ReplicaPool serves dynamic-batched traffic on replicas
// that hold exactly the weights faulty low-voltage chips would hold, and a
// HealthMonitor canary catches a forced degradation and walks the replica
// back up the voltage grid — the fault subset at each step comes from the
// SAME fault list the planner swept (voltage persistence).
//
//   ./example_serving_deployment
#include <cstdio>
#include <future>
#include <vector>

#include "ber.h"

int main() {
  using namespace ber;

  // 1. Train (RandBET: random bit errors injected during training).
  SyntheticConfig data_cfg = SyntheticConfig::cifar10();
  data_cfg.n_train = 1000;
  data_cfg.n_test = 400;
  const Dataset train_set = make_synthetic(data_cfg, true);
  const Dataset test_set = make_synthetic(data_cfg, false);

  ModelConfig mc;
  mc.width = 8;
  auto model = build_model(mc);
  TrainConfig tc;
  tc.method = Method::kRandBET;
  tc.wmax = 0.15f;
  tc.p_train = 0.015;
  tc.epochs = 20;
  tc.lr_warmup_epochs = 2;
  std::printf("training RandBET model (p_train=%.3f)...\n", tc.p_train);
  train(*model, train_set, test_set, tc);

  // 2. Checkpoint the deployable artifact: weights + quantization scheme.
  ensure_dir(artifacts_dir());
  const std::string ckpt = artifacts_dir() + "/serving_example.ckpt";
  save_checkpoint(ckpt, *model, tc.quant);
  auto served = build_model(mc);
  const QuantScheme scheme = load_checkpoint(ckpt, *served);
  const float clean = 100.0f * test_error(*served, test_set, &scheme);
  std::printf("checkpoint round-tripped, clean Err %.2f%%\n\n", clean);

  // 3. Plan: lowest-energy voltage whose RErr upper bound meets the SLO.
  SloConfig slo;
  slo.max_rerr = clean / 100.0 + 0.04;
  slo.z = 2.0;
  OperatingPointPlanner planner(*served, scheme);
  RandomBitErrorModel fault({/*p=*/0.02});
  const OperatingPointPlan plan = planner.plan(
      fault, test_set, {1.0, 0.94, 0.88, 0.84, 0.8, 0.76}, slo, /*n_chips=*/3);
  std::printf("SLO: RErr mean + %.0f std <= %.2f%%\n", slo.z,
              100.0 * slo.max_rerr);
  std::printf("  %-8s %-12s %-18s %-8s %s\n", "V/Vmin", "p (%)", "RErr (%)",
              "E/access", "verdict");
  for (const GridPoint& g : plan.grid) {
    std::printf("  %-8.2f %-12.4f %6.2f +-%-9.2f %-8.3f %s\n", g.voltage,
                100.0 * g.rate, 100.0 * g.rerr.mean_rerr,
                100.0 * g.rerr.std_rerr, g.energy,
                g.feasible ? "OK" : "too risky");
  }
  std::printf("-> deploy at %.2f Vmin: %.1f%% energy saving per access\n\n",
              plan.chosen_point().voltage, 100.0 * plan.energy_saving);

  // 4. Serve: three replicas (chips 0..2) behind the dynamic-batching pool,
  // with the canary monitor attached.
  HealthConfig hc;
  hc.max_err = slo.max_rerr;
  hc.period_batches = 10;
  HealthMonitor monitor(test_set.head(100), hc);
  ReplicaPool pool(planner.deploy_fleet(fault, plan, 3),
                   {/*max_batch=*/32, /*max_wait_us=*/1000}, &monitor);
  const long n_requests = 300;
  std::vector<std::future<std::vector<Prediction>>> futures;
  futures.reserve(static_cast<std::size_t>(n_requests));
  Tensor img;
  std::vector<int> lbl;
  for (long i = 0; i < n_requests; ++i) {
    const long j = i % test_set.size();
    test_set.batch(j, j + 1, img, lbl);
    futures.push_back(pool.submit(
        img.reshaped({img.shape(1), img.shape(2), img.shape(3)})));
  }
  long correct = 0;
  for (long i = 0; i < n_requests; ++i) {
    const auto preds = futures[static_cast<std::size_t>(i)].get();
    if (preds[0].label == test_set.labels[static_cast<std::size_t>(
                              i % test_set.size())]) {
      ++correct;
    }
  }
  pool.drain();
  const ServingStats stats = pool.stats();
  const obs::Histogram::Snapshot latency = pool.latency_histogram().snapshot();
  std::printf("served %ld requests on %zu replicas: served Err %.2f%%, "
              "mean batch %.1f, p50 %.0fus, p99 %.0fus\n\n",
              stats.requests, pool.size(),
              100.0 * (1.0 - static_cast<double>(correct) / n_requests),
              stats.mean_batch_images, latency.quantile(0.50),
              latency.quantile(0.99));

  // 5. Degrade and recover: push one replica below the plan; the canary
  // trips and steps it back up the SAME swept fault list.
  std::vector<Replica> drill = planner.deploy_fleet(fault, plan, 1);
  Replica& sick = drill[0];
  sick.deploy(plan.grid.size() - 1);
  std::printf("degradation drill: forced replica to %.2f Vmin (p=%.2f%%)\n",
              sick.point().voltage, 100.0 * sick.point().rate);
  HealthMonitor drill_monitor(test_set.head(100), hc);
  for (int i = 0; i < 16; ++i) {
    const HealthEvent ev = drill_monitor.check(sick);
    std::printf("  canary Err %.2f%% at %.2f Vmin -> %s\n",
                100.0 * ev.canary_err, ev.voltage_before,
                ev.tripped ? "TRIP, redeploy one step up" : "healthy");
    if (!ev.tripped) break;
  }
  std::printf("recovered at %.2f Vmin after %d redeploys\n",
              sick.point().voltage, drill_monitor.trips());
  return 0;
}
