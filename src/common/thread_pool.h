#ifndef RESTUNE_COMMON_THREAD_POOL_H_
#define RESTUNE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace restune {

/// Fixed-size worker pool for data-parallel loops. The loops that fan out
/// from a top-level caller:
/// * the BO hot path: acquisition scoring as (block, metric) tasks
///   (`bo/acquisition.cc`), batch GP inference (`GpModel::PredictBatch`
///   K* rows and solve stripes, `PredictMeanBatch` query ranges), Gram
///   rows, `Cholesky::InverseDiagonal` columns, hyper-parameter restarts,
///   the meta-learner's per-base prediction-cache extension and its
///   ranking-loss passes (`Rng::FillGaussian`, the misranked-pair rows);
/// * cold-start training: one task per base-learner
///   (`DataRepository::TrainBaseLearners`), per tree (`RandomForest::Fit`,
///   `QuantileForest::Fit`) and per paper-repository task
///   (`BuildPaperRepository`); the fits' own loops run inline in them.
///
/// Determinism contract: `ParallelFor` partitions an index range into
/// contiguous chunks and each `fn(i)` may only write to state owned by
/// index `i` (its own output slot). Under that discipline results are
/// bitwise identical for any pool size — including size 1, where the loop
/// runs inline on the caller — so seeded experiments stay reproducible
/// regardless of the machine's core count.
///
/// Nested parallelism is safe but not amplified: a `ParallelFor` issued
/// from inside a worker runs inline on that worker, which both avoids
/// deadlock (workers never block on the queue they drain) and keeps the
/// arithmetic order of nested loops identical to the serial order. A loop
/// therefore fans out only from a top-level caller — in the wire service
/// that is the event-loop thread running a request handler.
class ThreadPool {
 public:
  /// Creates a pool that runs loops on `num_threads` threads total. The
  /// calling thread always participates, so `num_threads == 1` spawns no
  /// workers and every loop runs inline.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Range loops over fewer items than this run inline on the caller: for
  /// a loop that small, waking a worker costs more than the items it would
  /// take. Callers that batch small tasks themselves apply the same grain.
  static constexpr size_t kRangeGrain = 64;

  /// Total threads a loop may use (workers + the calling thread).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs `fn(i)` for every i in [0, n), blocking until all calls return.
  /// Indices are claimed one at a time — right for a few heavy tasks
  /// (hyper-parameter restarts, local refinement of top candidates).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs `fn(begin, end)` over a partition of [0, n) into contiguous
  /// ranges, blocking until all return. Chunks amortize dispatch for many
  /// small iterations (per-candidate predictions, Gram-matrix rows). A
  /// range loop below `kRangeGrain` items runs inline as `fn(0, n)`.
  void ParallelForRanges(size_t n,
                         const std::function<void(size_t, size_t)>& fn);

  /// Process-wide pool, sized from `RESTUNE_NUM_THREADS` when set (min 1),
  /// else one less than the hardware concurrency (min 1). Never destroyed;
  /// safe to use from any thread. A size-1 environment makes every
  /// shared-pool loop inline.
  static ThreadPool* Shared();

  /// The thread count `Shared()` is built with.
  static size_t DefaultThreadCount();

 private:
  struct LoopState;

  void WorkerLoop();
  /// Runs inline on the caller when `n < min_parallel`.
  void RunLoop(size_t n, size_t min_parallel, size_t chunk,
               const std::function<void(size_t, size_t)>& fn);

  /// Immutable after construction; joined in the destructor with no lock
  /// held (workers observe `shutdown_` under `mu_` and drain out).
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  /// One entry per helper a running loop asked for; a loop withdraws its
  /// entries that no worker has taken once its chunks are all claimed.
  std::deque<LoopState*> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

/// `pool` if non-null, else the shared pool. The convention across the
/// library: APIs take `ThreadPool* pool = nullptr` and resolve through
/// this, so tests can pin a pool size while production uses the default.
inline ThreadPool* ResolvePool(ThreadPool* pool) {
  return pool != nullptr ? pool : ThreadPool::Shared();
}

}  // namespace restune

#endif  // RESTUNE_COMMON_THREAD_POOL_H_
