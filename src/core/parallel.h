// Fork-join parallelism over one persistent worker pool.
//
// The first multi-threaded parallel_for creates default_threads() - 1
// workers (BER_THREADS sizes the pool once, at that point); they sleep on a
// condition variable between calls and keep their thread-local state, so
// the kernels' scratch arenas stay warm across calls. The calling thread
// runs chunks too.
//
// Determinism: the chunk boundaries are a pure function of (n, threads).
// Which participant runs a chunk varies from call to call, and when
// `threads` exceeds the pool a participant runs several chunks, but the
// indices each fn(i) sees never change.
//
// Nesting: a call from a pool worker or from inside a ParallelWorkerScope
// runs all its chunks inline on the calling thread, as does a call made
// while another thread's call holds the pool and any call after the pool
// was joined at static destruction. Nothing waits on a busy pool, so
// nested and concurrent callers cannot deadlock.
#pragma once

#include <cstdint>
#include <functional>

namespace ber {

// Number of worker threads to use (hardware concurrency, overridable via
// BER_THREADS for tests).
int default_threads();

// Runs fn(i) for i in [0, n) on up to `threads` threads. Work is split into
// contiguous chunks. fn must be safe to call concurrently for distinct i.
// An exception thrown by fn propagates to the caller, once no other thread
// still runs a chunk of the call.
void parallel_for(std::int64_t n, int threads,
                  const std::function<void(std::int64_t)>& fn);

// Convenience overload using default_threads().
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);

// True on pool workers, on a caller while it runs the chunks of a
// multi-threaded parallel_for, and inside a ParallelWorkerScope. Lets inner
// layers — e.g. the blocked GEMM's intra-call sharding — stay serial
// instead of oversubscribing the machine T^2 when they already run inside a
// coarse-grained worker.
bool in_parallel_worker();

// RAII marker for worker threads created outside parallel_for (serving
// replicas, custom pools): their parallel_for calls run inline.
class ParallelWorkerScope {
 public:
  ParallelWorkerScope();
  ~ParallelWorkerScope();
  ParallelWorkerScope(const ParallelWorkerScope&) = delete;
  ParallelWorkerScope& operator=(const ParallelWorkerScope&) = delete;

 private:
  bool prev_;
};

}  // namespace ber
