#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/nelder_mead.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace restune {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status st = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad knob");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NumericalError("x").code(), StatusCode::kNumericalError);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
}

Status FailsThenPropagates() {
  RESTUNE_RETURN_IF_ERROR(Status::NotFound("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  const Status st = FailsThenPropagates();
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<double> HalfOf(double x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return x / 2.0;
}

Result<double> QuarterOf(double x) {
  RESTUNE_ASSIGN_OR_RETURN(const double half, HalfOf(x));
  return HalfOf(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  EXPECT_DOUBLE_EQ(*QuarterOf(8.0), 2.0);
  EXPECT_FALSE(QuarterOf(-1.0).ok());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRangeAndCoversValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.Gaussian();
  EXPECT_NEAR(Mean(xs), 0.0, 0.02);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.02);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(11);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(Mean(xs), 5.0, 0.05);
  EXPECT_NEAR(StdDev(xs), 2.0, 0.05);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end()), b(shuffled.begin(),
                                              shuffled.end());
  EXPECT_EQ(a, b);
}

void ExpectSameState(const RngState& a, const RngState& b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]) << "word " << i;
  EXPECT_EQ(a.has_cached_gaussian, b.has_cached_gaussian);
  EXPECT_EQ(a.cached_gaussian, b.cached_gaussian);
}

TEST(RngTest, FillGaussianMatchesRepeatedGaussian) {
  // From a fresh state and from one holding a cached deviate, a fill must
  // write the values of `count` Gaussian() calls and leave the generator
  // where they would. 2001 deviates are about 1000 pairs, past the pool's
  // range grain, so the wide pool transforms them on its workers.
  ThreadPool serial(1), wide(4);
  for (bool cached : {false, true}) {
    for (size_t count : {0, 1, 2, 7, 8, 2001}) {
      for (ThreadPool* pool : {&serial, &wide}) {
        Rng reference(17), filled(17);
        if (cached) {
          (void)reference.Gaussian();
          (void)filled.Gaussian();
        }
        std::vector<double> expected(count);
        for (double& x : expected) x = reference.Gaussian();
        std::vector<double> actual(count, -1.0);
        filled.FillGaussian(actual.data(), count, pool);
        SCOPED_TRACE(testing::Message() << "cached=" << cached << " count="
                                        << count << " threads="
                                        << pool->num_threads());
        for (size_t i = 0; i < count; ++i) {
          EXPECT_EQ(actual[i], expected[i]) << "deviate " << i;
        }
        ExpectSameState(filled.state(), reference.state());
        // The next draws agree too, cache first.
        EXPECT_EQ(filled.Gaussian(), reference.Gaussian());
        EXPECT_EQ(filled.Gaussian(), reference.Gaussian());
      }
    }
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, MeanAndStdDev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(PopulationStdDev(xs), 2.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), 2.138, 1e-3);
}

TEST(StatsTest, EmptyInputsAreSafe) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Min({}), 0.0);
  EXPECT_EQ(Max({}), 0.0);
}

TEST(StatsTest, Quantiles) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.0);
}

TEST(StatsTest, PearsonCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, zs), -1.0, 1e-12);
}

TEST(StatsTest, SpearmanHandlesMonotoneNonlinear) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(std::exp(0.3 * i));  // monotone but nonlinear
  }
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, RanksWithTies) {
  const std::vector<double> xs = {10, 20, 20, 30};
  const std::vector<double> r = Ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(StatsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(StatsTest, NormalPdfPeak) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989, 1e-4);
  EXPECT_GT(NormalPdf(0.0), NormalPdf(1.0));
}

// ----------------------------------------------------------- StringUtil

TEST(StringUtilTest, SplitString) {
  const auto parts = SplitString("a,b;;c", ",;");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, CaseConversionAndTrim) {
  EXPECT_EQ(ToUpper("select"), "SELECT");
  EXPECT_EQ(ToLower("SELECT"), "select");
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, StartsWithAndJoin) {
  EXPECT_TRUE(StartsWith("innodb_buffer", "innodb"));
  EXPECT_FALSE(StartsWith("inno", "innodb"));
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ", "), "");
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
}

// ----------------------------------------------------------- NelderMead

TEST(NelderMeadTest, MinimizesQuadratic) {
  auto f = [](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  NelderMeadOptions opts;
  opts.max_iterations = 200;
  const auto result = NelderMeadMinimize(f, {0.0, 0.0}, opts);
  EXPECT_NEAR(result.x[0], 3.0, 1e-2);
  EXPECT_NEAR(result.x[1], -1.0, 1e-2);
  EXPECT_LT(result.value, 1e-3);
}

TEST(NelderMeadTest, MinimizesRosenbrockReasonably) {
  auto f = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions opts;
  opts.max_iterations = 500;
  opts.tolerance = 1e-12;
  const auto result = NelderMeadMinimize(f, {-1.0, 1.0}, opts);
  EXPECT_LT(result.value, 0.1);
}

TEST(NelderMeadTest, RespectsIterationBudget) {
  int evals = 0;
  auto f = [&evals](const std::vector<double>& x) {
    ++evals;
    return x[0] * x[0];
  };
  NelderMeadOptions opts;
  opts.max_iterations = 5;
  NelderMeadMinimize(f, {10.0}, opts);
  EXPECT_LT(evals, 30);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForRangesPartitionsTheIndexSpace) {
  ThreadPool pool(3);
  const size_t n = 777;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelForRanges(n, [&](size_t begin, size_t end) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, n);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  pool.ParallelFor(16, [&](size_t) {
    if (std::this_thread::get_id() != caller) same_thread = false;
  });
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    // A loop issued from inside a worker must run inline, not re-enqueue.
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, CompletionHandshakeStress) {
  // Tiny loops maximize the window where the caller drains every chunk
  // itself and races a helper through the completion handshake; LoopState
  // lives on the caller's stack, so the helper must never touch it after
  // the caller's wait returns. Crashes/TSan reports here mean the
  // decrement-and-notify is not properly ordered against destruction.
  ThreadPool pool(4);
  for (int iter = 0; iter < 2000; ++iter) {
    std::atomic<int> sum{0};
    pool.ParallelFor(2, [&](size_t i) {
      sum.fetch_add(static_cast<int>(i) + 1);
    });
    ASSERT_EQ(sum.load(), 3) << "iteration " << iter;
  }
}

int64_t PoolCounter(const char* name) {
  return obs::MetricsRegistry::Global()->GetCounter(name)->Value();
}

TEST(ThreadPoolTest, RangeLoopBelowTheGrainRunsOnTheCaller) {
  ThreadPool pool(4);
  const int64_t helpers_before = PoolCounter("restune_pool_helper_tasks_total");
  const int64_t inline_before = PoolCounter("restune_pool_inline_loops_total");
  const auto caller = std::this_thread::get_id();
  std::vector<std::pair<size_t, size_t>> ranges;
  bool same_thread = true;
  pool.ParallelForRanges(63, [&](size_t begin, size_t end) {
    if (std::this_thread::get_id() != caller) same_thread = false;
    ranges.emplace_back(begin, end);
  });
  EXPECT_TRUE(same_thread);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(size_t{0}, size_t{63}));
  EXPECT_EQ(PoolCounter("restune_pool_helper_tasks_total"), helpers_before);
  EXPECT_EQ(PoolCounter("restune_pool_inline_loops_total"), inline_before + 1);
}

TEST(ThreadPoolTest, RangeLoopAtTheGrainEnqueuesHelpers) {
  ThreadPool pool(4);
  const int64_t helpers_before = PoolCounter("restune_pool_helper_tasks_total");
  const int64_t loops_before = PoolCounter("restune_pool_loops_total");
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelForRanges(64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(PoolCounter("restune_pool_helper_tasks_total"), helpers_before + 3);
  EXPECT_EQ(PoolCounter("restune_pool_loops_total"), loops_before + 1);
}

TEST(ThreadPoolTest, QueueDepthReadsZeroAfterALoopReturns) {
  // The gauge is the current queue depth: every helper of a finished loop
  // has been dequeued, so an idle pool reports an empty queue, not the
  // depth it peaked at.
  ThreadPool pool(4);
  for (int iter = 0; iter < 50; ++iter) {
    pool.ParallelFor(8, [](size_t) {});
    ASSERT_EQ(obs::MetricsRegistry::Global()
                  ->GetGauge("restune_pool_queue_depth")
                  ->Value(),
              0.0)
        << "iteration " << iter;
  }
}

TEST(ThreadPoolTest, LoopDoesNotWaitForAHelperNoWorkerTook) {
  // The pool's only worker is held inside another thread's loop, so a
  // second loop's helper stays queued. Its caller claims every chunk
  // itself and must then withdraw that helper and return, not wait for
  // the busy worker. A watchdog frees the worker after 10 s so a pool
  // that does wait fails the test instead of hanging it.
  ThreadPool pool(2);
  std::atomic<bool> worker_busy{false};
  std::atomic<bool> release{false};
  std::thread blocker([&] {  // restune-lint: allow(raw-thread)
    const auto blocker_id = std::this_thread::get_id();
    pool.ParallelFor(2, [&](size_t) {
      if (std::this_thread::get_id() == blocker_id) {
        while (!worker_busy.load()) std::this_thread::yield();
      } else {
        worker_busy.store(true);
        while (!release.load()) std::this_thread::yield();
      }
    });
  });
  while (!worker_busy.load()) std::this_thread::yield();

  std::mutex mu;
  std::condition_variable cv;
  bool returned = false;
  std::thread watchdog([&] {  // restune-lint: allow(raw-thread)
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return returned; });
    release.store(true);
  });
  std::atomic<int> sum{0};
  pool.ParallelFor(4, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  const bool returned_while_busy = !release.exchange(true);
  {
    std::lock_guard<std::mutex> lock(mu);
    returned = true;
  }
  cv.notify_one();
  watchdog.join();
  blocker.join();
  EXPECT_EQ(sum.load(), 6);
  EXPECT_TRUE(returned_while_busy);
}

TEST(ThreadPoolTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "should not be called"; });
  pool.ParallelForRanges(
      0, [&](size_t, size_t) { FAIL() << "should not be called"; });
}

TEST(ThreadPoolTest, DefaultCountLeavesOneHardwareThreadFree) {
  const char* env = std::getenv("RESTUNE_NUM_THREADS");
  const std::string saved = env ? env : "";
  unsetenv("RESTUNE_NUM_THREADS");
  const unsigned hw =
      std::thread::hardware_concurrency();  // restune-lint: allow(raw-thread)
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), hw > 1 ? hw - 1 : 1u);
  setenv("RESTUNE_NUM_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 5u);
  if (env) {
    setenv("RESTUNE_NUM_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("RESTUNE_NUM_THREADS");
  }
}

TEST(ThreadPoolTest, ResolvePoolFallsBackToShared) {
  ThreadPool local(2);
  EXPECT_EQ(ResolvePool(&local), &local);
  EXPECT_EQ(ResolvePool(nullptr), ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared()->num_threads(), 1u);
}

}  // namespace
}  // namespace restune
