// Fork-join parallelism over one persistent worker pool.
//
// The first multi-threaded parallel_for creates default_threads() - 1
// workers (BER_THREADS sizes the pool once, at that point); they sleep on a
// condition variable between calls and keep their thread-local state, so
// the kernels' scratch arenas stay warm across calls. The calling thread
// runs chunks too.
//
// Who splits what:
//   * coarse grain — the evaluator's (chip, rate-point) cells and the
//     serving replicas each run a whole model forward on one thread;
//   * intra-op — a model step run on a plain caller thread (training, a
//     caller-side evaluation) splits each kernel: the blocked GEMM over
//     row/column bands, the float conv lowering per image, GroupNorm and
//     MaxPool2d per image, ReLU per fixed element chunk.
// The two never stack: every intra-op split asks intra_op_threads(), the one
// gate, which answers 1 on a pool worker or inside a ParallelWorkerScope and
// below the op's work floor. Each element's arithmetic, and its order, is
// the same whatever the split, so results are bit-identical for any thread
// count; with one thread the same loop body runs inline.
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

// The intra-op gate: how many threads an op touching `work` units should
// split over. 1 on a pool worker or inside a ParallelWorkerScope (the
// coarse-grained level already owns the cores), or when work < min_work
// (dispatch would cost more than it saves); default_threads() otherwise.
int intra_op_threads(double work, double min_work);

// The work floor of the per-image / per-chunk loops outside the GEMM
// (conv lowering, GroupNorm, ReLU, MaxPool2d), in floats touched: batch-1/2
// serving shapes and small test fixtures stay inline.
inline constexpr double kIntraOpMinFloats = 65536.0;

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
