// The serving runtime: N fault-injected replicas on worker threads behind a
// dynamic-batching queue.
//
// Each worker owns one Replica exclusively (core/parallel-style coarse
// threads; no shared model state) and loops: pop a coalesced WorkBatch,
// concatenate the requests into one forward pass, softmax, fulfill each
// request's promise with per-image predictions. When a HealthMonitor is
// attached, the worker runs its replica's canary every period_batches
// batches — on its own thread, so a tripped redeploy never races serving
// traffic on that replica.
//
// Request → replica assignment is whichever worker pops first, so per-image
// results are only replica-independent if the fleet shares one chip. What
// IS deterministic regardless of assignment: each prediction equals a
// serial forward of the same image on the replica that served it, and the
// dynamic batch composition never changes per-image results (all layers are
// per-sample in eval mode).
#pragma once

#include <cstddef>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/batch_queue.h"
#include "serve/health_monitor.h"
#include "serve/replica.h"

namespace ber {

namespace kernels {
class Backend;
}

struct ServingStats {
  long requests = 0;
  long images = 0;
  long batches = 0;
  double mean_batch_images = 0.0;
  std::vector<long> per_replica_batches;
  std::vector<long> per_replica_images;
  // Deployment telemetry aggregated over the fleet (Replica::DeployStats):
  // how many deploys ran, how many were served by the delta / no-op fast
  // paths, and the weight-memory bytes rewritten. With delta redeploys the
  // bytes stay proportional to the fault-set difference instead of W per
  // redeploy.
  long deploys = 0;
  long delta_deploys = 0;
  long noop_deploys = 0;
  unsigned long long deploy_bytes = 0;
};

class ReplicaPool {
 public:
  // Takes ownership of the replicas and starts one worker thread per
  // replica. `monitor` (optional) must outlive the pool.
  ReplicaPool(std::vector<Replica> replicas, BatchQueueConfig queue_config,
              HealthMonitor* monitor = nullptr);
  ~ReplicaPool();

  // Enqueues a [C,H,W] image or [N,C,H,W] pre-batched tensor; the future
  // resolves to one Prediction per image. All requests must share the
  // image shape of the first submission.
  std::future<std::vector<Prediction>> submit(Tensor input);

  // Closes the queue, lets queued work finish, joins workers. Idempotent;
  // also run by the destructor.
  void drain();

  // Consistent once drain() has returned; a live snapshot before that.
  ServingStats stats() const;

  std::size_t size() const { return replicas_.size(); }
  Replica& replica(std::size_t i) { return replicas_[i]; }

  // The pool-level latency distribution (submit -> fulfilled, us, over the
  // pool's lifetime) — the histogram the SLO scoreboard windows over. Read
  // percentiles as latency_histogram().snapshot().quantile(q): <= ~3.2%
  // relative bucket error, no sample window.
  const obs::Histogram& latency_histogram() const { return latency_hist_; }
  // Live queued-but-unserved image backlog.
  long queue_depth_images() const { return queue_.depth_images(); }

 private:
  void worker(std::size_t i);

  std::vector<Replica> replicas_;
  BatchQueue queue_;
  HealthMonitor* monitor_;
  // Compute backend current at construction, re-installed on each worker.
  // Like `monitor_`, it must outlive the pool — always true for registry
  // backends; only a caller-owned backend installed via ScopedBackend at
  // construction time carries a lifetime obligation.
  const kernels::Backend* backend_;

  mutable std::mutex stats_mu_;
  struct WorkerStats {
    long batches = 0;
    long images = 0;
    long requests = 0;
    // Snapshot of the replica's deploy counters, refreshed by its worker
    // under stats_mu_ (replicas themselves are lock-free; stats() must not
    // read them while a monitor-triggered redeploy runs on the worker).
    Replica::DeployStats deploy;
  };
  std::vector<WorkerStats> worker_stats_;
  // Pool-local latency distribution backing the ServingStats percentile
  // fields (per-pool semantics); the process-wide registry additionally gets
  // per-replica serve.request_latency_us{replica=i} histograms.
  obs::Histogram latency_hist_;

  // Shape check on the submit hot path has its own mutex so producers never
  // contend with worker stat updates.
  std::mutex shape_mu_;
  std::vector<long> image_shape_;  // [C,H,W] of the first submission

  std::vector<std::thread> threads_;
  bool drained_ = false;
};

}  // namespace ber
