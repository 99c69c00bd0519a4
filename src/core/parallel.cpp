#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace ber {

int default_threads() {
  if (const char* env = std::getenv("BER_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  // hardware_concurrency() is a syscall; BER_THREADS stays live per call.
  static const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return hw;
}

namespace {

thread_local bool tls_in_worker = false;

// Set once the pool's static destructor has joined the workers; later calls
// run inline instead of touching the destroyed pool. A plain atomic is
// constant-initialized and never destroyed, so it is safe to read at exit.
std::atomic<bool> g_pool_joined{false};

// One multi-threaded call: chunks [0, chunks) of `chunk` indices each, the
// last one capped at n.
struct Job {
  const std::function<void(std::int64_t)>* fn;
  std::int64_t n;
  std::int64_t chunk;
  std::int64_t chunks;
};

void run_chunk(const Job& job, std::int64_t c) {
  const std::int64_t end = std::min(job.n, (c + 1) * job.chunk);
  for (std::int64_t i = c * job.chunk; i < end; ++i) (*job.fn)(i);
}

// default_threads() - 1 workers that sleep on a condition variable between
// jobs. One job runs at a time; its chunks go to whichever participant
// (worker or caller) asks next, under the mutex. Chunks are few (about one
// per thread), so a lock per chunk is far cheaper than the work it hands out.
class Pool {
 public:
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  explicit Pool(int workers) {
    threads_.reserve(static_cast<std::size_t>(std::max(0, workers)));
    for (int t = 0; t < workers; ++t) {
      try {
        threads_.emplace_back([this] { work(); });
      } catch (const std::system_error&) {
        break;  // out of threads: the caller and the workers made so far
                // still run every chunk
      }
    }
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
    g_pool_joined.store(true);
  }

  // Runs `job` with the caller as one participant. Returns false without
  // running anything when another thread's job holds the pool.
  bool run(const Job& job) {
    std::unique_lock<std::mutex> lock(mu_);
    if (job_ != nullptr) return false;
    job_ = &job;
    next_ = 0;
    finished_ = 0;
    error_ = nullptr;
    lock.unlock();
    wake_.notify_all();
    lock.lock();
    drain(lock);
    done_.wait(lock, [&] { return finished_ == job.chunks; });
    job_ = nullptr;
    const std::exception_ptr error = error_;
    lock.unlock();
    if (error) std::rethrow_exception(error);
    return true;
  }

 private:
  // Takes and runs chunks of the current job until none are left. Called
  // with the lock held; returns with it held.
  void drain(std::unique_lock<std::mutex>& lock) {
    const Job* job = job_;
    while (next_ < job->chunks) {
      const std::int64_t c = next_++;
      lock.unlock();
      std::exception_ptr error;
      try {
        run_chunk(*job, c);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !error_) error_ = error;
      if (++finished_ == job->chunks) done_.notify_one();
    }
  }

  void work() {
    tls_in_worker = true;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && next_ < job_->chunks);
      });
      if (stop_) return;
      drain(lock);
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  // workers: a job has chunks left, or stop
  std::condition_variable done_;  // caller: the last chunk finished
  const Job* job_ = nullptr;      // non-null while a caller holds the pool
  std::int64_t next_ = 0;         // next chunk to hand out
  std::int64_t finished_ = 0;     // chunks completed
  std::exception_ptr error_;      // first exception thrown by a chunk
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

Pool& pool() {
  static Pool instance(default_threads() - 1);
  return instance;
}

}  // namespace

bool in_parallel_worker() { return tls_in_worker; }

int intra_op_threads(double work, double min_work) {
  if (work < min_work || tls_in_worker) return 1;
  return default_threads();
}

ParallelWorkerScope::ParallelWorkerScope() : prev_(tls_in_worker) {
  tls_in_worker = true;
}

ParallelWorkerScope::~ParallelWorkerScope() { tls_in_worker = prev_; }

void parallel_for(std::int64_t n, int threads,
                  const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  threads = static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(threads, n)));
  if (threads == 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::int64_t chunk = (n + threads - 1) / threads;
  const Job job{&fn, n, chunk, (n + chunk - 1) / chunk};
  // Nested calls (from a pool worker or a marked thread), calls after the
  // pool was joined, and calls that find the pool busy run every chunk
  // inline; the chunk boundaries, and so the results, are the same.
  const bool nested = tls_in_worker;
  const ParallelWorkerScope worker_mark;
  if (nested || g_pool_joined.load() || !pool().run(job)) {
    for (std::int64_t c = 0; c < job.chunks; ++c) run_chunk(job, c);
  }
}

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  parallel_for(n, default_threads(), fn);
}

}  // namespace ber
