#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "obs/metrics.h"

namespace restune {

namespace {

/// Pool activity metrics. Counters only — one relaxed add per loop/chunk,
/// never a clock read, so instrumentation cannot perturb scheduling.
struct PoolMetrics {
  obs::Counter* loops;
  obs::Counter* inline_loops;
  obs::Counter* chunks;
  obs::Counter* helper_tasks;
  obs::Gauge* queue_depth;

  static PoolMetrics* Get() {
    static PoolMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new PoolMetrics();
      metrics->loops = registry->GetCounter("restune_pool_loops_total");
      metrics->inline_loops =
          registry->GetCounter("restune_pool_inline_loops_total");
      metrics->chunks = registry->GetCounter("restune_pool_chunks_total");
      metrics->helper_tasks =
          registry->GetCounter("restune_pool_helper_tasks_total");
      metrics->queue_depth = registry->GetGauge("restune_pool_queue_depth");
      return metrics;
    }();
    return m;
  }
};

// Set while a thread is executing pool work; nested loops detect it and run
// inline instead of re-entering the queue.
thread_local bool t_inside_pool_work = false;

}  // namespace

// One parallel loop in flight: the caller and its helpers self-schedule
// chunks of [0, n) via a shared atomic cursor, and the last helper to finish
// signals completion. n/chunk/fn are written before the helpers are
// published to the queue (the queue mutex orders the hand-off) and are
// read-only afterwards.
struct ThreadPool::LoopState {
  size_t n = 0;
  size_t chunk = 1;
  const std::function<void(size_t, size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};
  Mutex mu;
  CondVar done;
  size_t pending_helpers GUARDED_BY(mu) = 0;

  void RunChunks() {
    obs::Counter* chunks_total = PoolMetrics::Get()->chunks;
    while (true) {
      // Relaxed: the cursor only partitions indices; the writes each chunk
      // makes are published to the caller by the mu-protected completion
      // handshake, not by this fetch_add.
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      chunks_total->Add();
      (*fn)(begin, std::min(n, begin + chunk));
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  t_inside_pool_work = true;
  while (true) {
    LoopState* state = nullptr;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // shutdown with nothing left to drain
      state = queue_.front();
      queue_.pop_front();
      PoolMetrics::Get()->queue_depth->Set(static_cast<double>(queue_.size()));
    }
    state->RunChunks();
    // Decrement and notify while holding state->mu: the caller's wait loop
    // re-checks the count under the same mutex, so it can observe zero
    // only after this helper's unlock — which therefore happens-before the
    // caller destroys LoopState. A bare atomic decrement outside the lock
    // would let the caller tear down the mutex/cv while this helper is
    // still blocked acquiring them.
    MutexLock state_lock(&state->mu);
    if (--state->pending_helpers == 0) state->done.NotifyOne();
  }
}

void ThreadPool::RunLoop(size_t n, size_t min_parallel, size_t chunk,
                         const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  PoolMetrics* metrics = PoolMetrics::Get();
  if (num_threads() <= 1 || n < min_parallel || t_inside_pool_work) {
    metrics->inline_loops->Add();
    fn(0, n);
    return;
  }
  metrics->loops->Add();
  LoopState state;
  state.n = n;
  state.chunk = chunk;
  state.fn = &fn;

  const size_t helpers = std::min(workers_.size(), n - 1);
  {
    MutexLock state_lock(&state.mu);
    state.pending_helpers = helpers;
  }
  {
    MutexLock lock(&mu_);
    queue_.insert(queue_.end(), helpers, &state);
    metrics->helper_tasks->Add(static_cast<int64_t>(helpers));
    metrics->queue_depth->Set(static_cast<double>(queue_.size()));
  }
  cv_.NotifyAll();

  const bool was_inside = t_inside_pool_work;
  t_inside_pool_work = true;  // nested loops on the caller also run inline
  state.RunChunks();
  t_inside_pool_work = was_inside;

  // Every chunk is claimed now, so a helper still in the queue would find
  // nothing to do: withdraw it instead of waiting for a worker to wake up
  // and dequeue it. Helpers already dequeued may be mid-chunk; `state` and
  // `fn` must outlive them, so wait for each of those to finish.
  size_t withdrawn = 0;
  {
    MutexLock lock(&mu_);
    const auto kept = std::remove(queue_.begin(), queue_.end(), &state);
    withdrawn = static_cast<size_t>(queue_.end() - kept);
    queue_.erase(kept, queue_.end());
    metrics->queue_depth->Set(static_cast<double>(queue_.size()));
  }
  MutexLock lock(&state.mu);
  state.pending_helpers -= withdrawn;
  while (state.pending_helpers != 0) state.done.Wait(&state.mu);
}

void ThreadPool::ParallelForRanges(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  // ~4 chunks per thread balances load without excessive cursor traffic.
  const size_t chunk = std::max<size_t>(1, n / (num_threads() * 4));
  RunLoop(n, kRangeGrain, chunk, fn);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  // Chunk size 1: each index is claimed individually, which is what the few
  // heavy, unevenly sized tasks using this entry point want.
  RunLoop(n, 2, 1, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("RESTUNE_NUM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<size_t>(parsed);
  }
  // One hardware thread is left to the rest of the process and the host.
  // A loop as wide as the machine joins at the pace of its busiest core:
  // whenever anything else runs, one of its chunks waits for a core. One
  // core short, the scheduler has a free core to move that work to.
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<size_t>(hw) - 1 : 1;
}

ThreadPool* ThreadPool::Shared() {
  // Leaked intentionally: the pool must outlive any static-destruction-order
  // user, and worker threads joining at exit would stall teardown.
  // restune-lint: allow(naked-new) -- intentional leak, see above
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return pool;
}

}  // namespace restune
