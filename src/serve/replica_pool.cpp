#include "serve/replica_pool.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.h"
#include "kernels/backend.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace ber {

namespace {

// [C,H,W] of a request tensor (3-d single image or 4-d batch).
std::vector<long> image_shape_of(const Tensor& t) {
  const int d = t.dim();
  return {t.shape(d - 3), t.shape(d - 2), t.shape(d - 1)};
}

// Registry-side per-replica serving instruments, resolved once per worker.
struct ReplicaMetrics {
  obs::Counter& requests;
  obs::Counter& images;
  obs::Counter& batches;
  obs::Histogram& latency_us;

  explicit ReplicaMetrics(std::size_t i)
      : requests(obs::registry().counter(
            "serve.requests", {{"replica", std::to_string(i)}})),
        images(obs::registry().counter("serve.images",
                                       {{"replica", std::to_string(i)}})),
        batches(obs::registry().counter("serve.batches",
                                        {{"replica", std::to_string(i)}})),
        latency_us(obs::registry().histogram(
            "serve.request_latency_us", {{"replica", std::to_string(i)}})) {}
};

}  // namespace

ReplicaPool::ReplicaPool(std::vector<Replica> replicas,
                         BatchQueueConfig queue_config, HealthMonitor* monitor)
    : replicas_(std::move(replicas)),
      queue_(queue_config),
      monitor_(monitor),
      backend_(&kernels::current_backend()),
      worker_stats_(replicas_.size()) {
  if (replicas_.empty()) {
    throw std::invalid_argument("ReplicaPool: need at least one replica");
  }
  // Seed the deploy-counter snapshots with the constructor-time deploys
  // before any worker (or stats reader) runs.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    worker_stats_[i].deploy = replicas_[i].deploy_stats();
  }
  threads_.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    threads_.emplace_back([this, i] { worker(i); });
  }
}

ReplicaPool::~ReplicaPool() { drain(); }

std::future<std::vector<Prediction>> ReplicaPool::submit(Tensor input) {
  if (input.dim() == 3 || input.dim() == 4) {
    const std::vector<long> shape = image_shape_of(input);
    std::lock_guard<std::mutex> lk(shape_mu_);
    if (image_shape_.empty()) {
      image_shape_ = shape;
    } else if (shape != image_shape_) {
      throw std::invalid_argument(
          "ReplicaPool::submit: image shape differs from earlier requests");
    }
  }
  return queue_.submit(std::move(input));
}

void ReplicaPool::drain() {
  if (drained_) return;
  drained_ = true;
  queue_.close();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ReplicaPool::worker(std::size_t i) {
  // Serve under the backend that was current when the pool was built, so a
  // deployment can opt the whole fleet into the blocked kernels with one
  // ScopedBackend around construction.
  // The worker marker keeps intra-GEMM sharding serial on these threads:
  // one replica per core is already the right granularity.
  const kernels::ScopedBackend backend_guard(*backend_);
  const ParallelWorkerScope worker_mark;
  obs::set_thread_name("serve.worker/" + std::to_string(i));
  const ReplicaMetrics metrics(i);
  Replica& replica = replicas_[i];
  for (;;) {
    WorkBatch wb = queue_.pop();
    if (wb.empty()) return;  // closed and drained

    BER_TRACE_SCOPE_ARGS("serve", "batch", {"replica", i},
                         {"images", wb.total_images},
                         {"requests", wb.requests.size()});
    std::vector<double> latencies;
    std::size_t fulfilled = 0;
    try {
      // Concatenate the coalesced requests into one [N,C,H,W] pass.
      const std::vector<long> img = image_shape_of(wb.requests.front().input);
      const long stride = img[0] * img[1] * img[2];
      Tensor batch({wb.total_images, img[0], img[1], img[2]});
      long row = 0;
      for (const Request& req : wb.requests) {
        std::memcpy(batch.data() + row * stride, req.input.data(),
                    static_cast<std::size_t>(req.n_images * stride) *
                        sizeof(float));
        row += req.n_images;
      }

      Tensor probs = [&] {
        BER_TRACE_SCOPE_ARGS("serve", "forward", {"images", wb.total_images});
        Tensor p = replica.forward(batch);
        softmax_rows(p);
        return p;
      }();

      BER_TRACE_SCOPE("serve", "reply");
      const auto done = std::chrono::steady_clock::now();
      latencies.reserve(wb.requests.size());
      row = 0;
      for (Request& req : wb.requests) {
        std::vector<Prediction> out(static_cast<std::size_t>(req.n_images));
        for (long k = 0; k < req.n_images; ++k) {
          const long pred = argmax_row(probs, row + k);
          out[static_cast<std::size_t>(k)] = {
              static_cast<int>(pred), probs.at(row + k, pred)};
        }
        row += req.n_images;
        const double lat_us =
            std::chrono::duration<double, std::micro>(done - req.enqueued)
                .count();
        // Record BEFORE fulfilling the promise: anyone who observes the
        // future ready (the SLO scoreboard closes windows on exactly that)
        // must also find the sample in the histogram.
        latency_hist_.record(lat_us);
        metrics.latency_us.record(lat_us);
        latencies.push_back(lat_us);
        req.promise.set_value(std::move(out));
        ++fulfilled;
      }
    } catch (...) {
      // A bad request (e.g. an input the model cannot forward) must fail
      // its own batch's futures, not std::terminate the serving process.
      for (std::size_t r = fulfilled; r < wb.requests.size(); ++r) {
        wb.requests[r].promise.set_exception(std::current_exception());
      }
    }

    // Histogram recording is lock-free; only the legacy counter snapshot
    // still wants stats_mu_.
    metrics.requests.add(latencies.size());
    metrics.images.add(static_cast<std::uint64_t>(wb.total_images));
    metrics.batches.add(1);

    long batches_served;
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      WorkerStats& ws = worker_stats_[i];
      ++ws.batches;
      ws.images += wb.total_images;
      ws.requests += static_cast<long>(wb.requests.size());
      batches_served = ws.batches;
    }
    if (monitor_ && monitor_->due(batches_served)) {
      monitor_->check(replica);
      // A tripped check may have redeployed; refresh the counters the
      // stats() reader sees (it must never touch the replica directly).
      std::lock_guard<std::mutex> lk(stats_mu_);
      worker_stats_[i].deploy = replica.deploy_stats();
    }
  }
}

ServingStats ReplicaPool::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  ServingStats s;
  s.per_replica_batches.reserve(worker_stats_.size());
  s.per_replica_images.reserve(worker_stats_.size());
  for (const WorkerStats& ws : worker_stats_) {
    s.requests += ws.requests;
    s.images += ws.images;
    s.batches += ws.batches;
    s.per_replica_batches.push_back(ws.batches);
    s.per_replica_images.push_back(ws.images);
    s.deploys += ws.deploy.deploys;
    s.delta_deploys += ws.deploy.delta_deploys;
    s.noop_deploys += ws.deploy.noop_deploys;
    s.deploy_bytes += ws.deploy.bytes_written;
  }
  s.mean_batch_images =
      s.batches > 0 ? static_cast<double>(s.images) / s.batches : 0.0;
  return s;
}

}  // namespace ber
