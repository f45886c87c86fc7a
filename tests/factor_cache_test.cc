#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gp/gp_model.h"
#include "gp/gp_serialization.h"
#include "meta/base_learner.h"
#include "meta/base_learner_cache.h"
#include "meta/data_repository.h"
#include "obs/metrics.h"

namespace restune {
namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global()->GetCounter(name)->Value();
}

std::vector<Observation> MakeHistory(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> obs(n);
  for (Observation& o : obs) {
    const double a = rng.Uniform();
    const double b = rng.Uniform();
    o.theta = {a, b};
    o.res = 2.0 + a * a + 0.5 * b;
    o.tps = 120.0 - 30.0 * a;
    o.lat = 1.0 + b;
  }
  return obs;
}

TuningTask MakeTask(const std::string& name, uint64_t seed) {
  TuningTask task;
  task.name = name;
  task.hardware = "hwA";
  task.workload = "twitter";
  task.meta_feature = {0.25, 0.5, 0.75};
  task.observations = MakeHistory(24, seed);
  return task;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(GpFactorSerializationTest, RoundTripRestoresFactorWithoutRefit) {
  Rng rng(31);
  const size_t n = 40;
  Matrix x(n, 3);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.Uniform();
    y[i] = rng.Gaussian();
  }
  GpOptions options;
  options.optimize_hyperparams = false;
  options.normalize_y = false;
  GpModel model(3, options);
  ASSERT_TRUE(model.Fit(x, y).ok());

  std::stringstream file;
  ASSERT_TRUE(SaveGpModel(model, &file).ok());

  const int64_t loads_before = CounterValue("restune_gp_factor_loads_total");
  const int64_t fallbacks_before =
      CounterValue("restune_gp_factor_fallbacks_total");
  Result<GpModel> loaded = LoadGpModel(&file);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(CounterValue("restune_gp_factor_loads_total"), loads_before + 1);
  EXPECT_EQ(CounterValue("restune_gp_factor_fallbacks_total"),
            fallbacks_before);

  // The restored factor IS the saved factor, so predictions are bitwise
  // identical to the original model's.
  Vector query = {0.3, 0.6, 0.9};
  const GpPrediction a = model.Predict(query);
  const GpPrediction b = loaded.value().Predict(query);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.variance, b.variance);

  // And the loaded factor equals the fitted one entry for entry.
  const Matrix& l0 = model.factor().lower();
  const Matrix& l1 = loaded.value().factor().lower();
  ASSERT_EQ(l0.rows(), l1.rows());
  for (size_t i = 0; i < l0.rows(); ++i) {
    for (size_t j = 0; j <= i; ++j) EXPECT_EQ(l0(i, j), l1(i, j));
  }
}

TEST(GpFactorSerializationTest, CorruptedChecksumFallsBackToRefit) {
  Rng rng(32);
  const size_t n = 20;
  Matrix x(n, 2);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = rng.Gaussian();
  }
  GpOptions options;
  options.optimize_hyperparams = false;
  options.normalize_y = false;
  GpModel model(2, options);
  ASSERT_TRUE(model.Fit(x, y).ok());

  ByteWriter out;
  ASSERT_TRUE(WriteGpModel(&out, model).ok());
  std::string payload = out.Take();
  // Clobber the stored digest, the payload's last 8 bytes. (A file's CRC
  // would refuse this; the fallback guards the payload beneath it.)
  payload.replace(payload.size() - 8, 8, "deadbeef");

  const int64_t fallbacks_before =
      CounterValue("restune_gp_factor_fallbacks_total");
  ByteReader in(payload);
  Result<GpModel> loaded = ReadGpModel(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(CounterValue("restune_gp_factor_fallbacks_total"),
            fallbacks_before + 1);

  // The fallback refit still reproduces the posterior.
  Vector query = {0.4, 0.8};
  const GpPrediction a = model.Predict(query);
  const GpPrediction b = loaded.value().Predict(query);
  EXPECT_NEAR(a.mean, b.mean, 1e-10);
  EXPECT_NEAR(a.variance, b.variance, 1e-10);
}

TEST(BaseLearnerCacheTest, SecondTrainIsACacheHit) {
  BaseLearnerCache::Global()->Clear();
  const TuningTask task = MakeTask("cache_hit_task", 41);

  const int64_t fits_before =
      CounterValue("restune_meta_base_learner_fits_total");
  const int64_t hits_before =
      CounterValue("restune_meta_base_learner_cache_hits_total");

  Result<BaseLearner> first = BaseLearner::Train(task);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(CounterValue("restune_meta_base_learner_fits_total"),
            fits_before + 1);
  EXPECT_FALSE(first.value().fingerprint().empty());

  Result<BaseLearner> second = BaseLearner::Train(task);
  ASSERT_TRUE(second.ok());
  // No new fit; the hit shares the fitted GP outright.
  EXPECT_EQ(CounterValue("restune_meta_base_learner_fits_total"),
            fits_before + 1);
  EXPECT_EQ(CounterValue("restune_meta_base_learner_cache_hits_total"),
            hits_before + 1);
  EXPECT_EQ(&first.value().gp(), &second.value().gp());
}

TEST(BaseLearnerCacheTest, FingerprintTracksInputsAndOptions) {
  const TuningTask task = MakeTask("fp_task", 42);
  const GpOptions options = BaseLearner::DefaultGpOptions();
  const std::string base = BaseLearnerFingerprint(task, options);
  EXPECT_EQ(base, BaseLearnerFingerprint(task, options));

  TuningTask changed = task;
  changed.observations[0].res += 1e-9;
  EXPECT_NE(base, BaseLearnerFingerprint(changed, options));

  GpOptions noisier = options;
  noisier.noise_variance *= 2.0;
  EXPECT_NE(base, BaseLearnerFingerprint(task, noisier));
}

// Repository files store each learner's fingerprint, and a learner loaded
// from one is reused only while training would hash to the same value. A
// changed hash makes every saved learner miss the cache and refit, so the
// default-options fingerprint is pinned.
TEST(BaseLearnerCacheTest, DefaultFingerprintKeepsItsValue) {
  const TuningTask task = MakeTask("fp_task", 42);
  EXPECT_EQ(BaseLearnerFingerprint(task, BaseLearner::DefaultGpOptions()),
            "6685470cbed4d71a");
}

TEST(DataRepositoryCacheTest, LoadedLearnersEliminateRefits) {
  BaseLearnerCache::Global()->Clear();
  DataRepository repo;
  ASSERT_TRUE(repo.AddTask(MakeTask("repo_task_a", 51)).ok());
  ASSERT_TRUE(repo.AddTask(MakeTask("repo_task_b", 52)).ok());

  const int64_t fits_start =
      CounterValue("restune_meta_base_learner_fits_total");
  const std::vector<BaseLearner> learners = repo.TrainAllBaseLearners();
  ASSERT_EQ(learners.size(), 2u);
  EXPECT_EQ(CounterValue("restune_meta_base_learner_fits_total"),
            fits_start + 2);

  const std::string path =
      testing::TempDir() + "restune_factor_cache_test.repo";
  ASSERT_TRUE(repo.SaveToFile(path, learners).ok());

  // Simulate a fresh process: drop the in-memory cache, then load.
  BaseLearnerCache::Global()->Clear();
  DataRepository restored;
  const int64_t fits_before_load =
      CounterValue("restune_meta_base_learner_fits_total");
  const int64_t factor_loads_before =
      CounterValue("restune_gp_factor_loads_total");
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  ASSERT_EQ(restored.loaded_learners().size(), 2u);
  ASSERT_EQ(restored.num_tasks(), 2u);
  // Deserialization restores factors; it never refits (2 learners x 3
  // metric GPs = 6 factor loads, 0 fits).
  EXPECT_EQ(CounterValue("restune_meta_base_learner_fits_total"),
            fits_before_load);
  EXPECT_EQ(CounterValue("restune_gp_factor_loads_total"),
            factor_loads_before + 6);

  // Training over the same tasks in this session hits the pre-seeded cache.
  const int64_t hits_before =
      CounterValue("restune_meta_base_learner_cache_hits_total");
  const std::vector<BaseLearner> retrained = restored.TrainAllBaseLearners();
  ASSERT_EQ(retrained.size(), 2u);
  EXPECT_EQ(CounterValue("restune_meta_base_learner_fits_total"),
            fits_before_load);
  EXPECT_EQ(CounterValue("restune_meta_base_learner_cache_hits_total"),
            hits_before + 2);

  // A second repository load in the same process also stays fit-free —
  // the bug this cache fixes was one refit per session load.
  DataRepository second;
  ASSERT_TRUE(second.LoadFromFile(path).ok());
  const std::vector<BaseLearner> again = second.TrainAllBaseLearners();
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(CounterValue("restune_meta_base_learner_fits_total"),
            fits_before_load);

  // Cached learners predict exactly like the originals.
  const Vector theta = {0.35, 0.65};
  for (size_t i = 0; i < learners.size(); ++i) {
    EXPECT_EQ(learners[i].PredictMean(MetricKind::kRes, theta),
              retrained[i].PredictMean(MetricKind::kRes, theta));
  }
  std::remove(path.c_str());
}

TEST(DataRepositoryCacheTest, SaveLoadSaveIsByteIdentical) {
  BaseLearnerCache::Global()->Clear();
  DataRepository repo;
  ASSERT_TRUE(repo.AddTask(MakeTask("replay_task_a", 61)).ok());
  ASSERT_TRUE(repo.AddTask(MakeTask("replay_task_b", 62)).ok());
  const std::vector<BaseLearner> learners = repo.TrainAllBaseLearners();
  ASSERT_EQ(learners.size(), 2u);

  const std::string path_a = testing::TempDir() + "restune_replay_a.repo";
  const std::string path_b = testing::TempDir() + "restune_replay_b.repo";
  ASSERT_TRUE(repo.SaveToFile(path_a, learners).ok());

  DataRepository restored;
  ASSERT_TRUE(restored.LoadFromFile(path_a).ok());
  ASSERT_TRUE(
      restored.SaveToFile(path_b, restored.loaded_learners()).ok());

  // Checkpoint/resume replay: load + re-save must reproduce the file byte
  // for byte (base learners use normalize_y=false, whose serialized state
  // is exact).
  const std::string bytes_a = ReadFile(path_a);
  const std::string bytes_b = ReadFile(path_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// Hammer the cache from 8 threads and check the hit/miss/fit accounting
// stays exact. Every Train is either a hit or a miss, every miss fits, the
// cache converges on one entry per distinct fingerprint (first write wins),
// and a racing double-fit is visible only as extra fits — never as a torn
// map or a double-counted hit. This is the test the tsan CI leg exists
// for: the cache is the one piece of meta-learning state shared by
// concurrent server sessions.
TEST(BaseLearnerCacheTest, ConcurrentTrainKeepsCounterAccountingExact) {
  BaseLearnerCache::Global()->Clear();
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  constexpr int kTasks = 4;
  std::vector<TuningTask> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(MakeTask("stress_task_" + std::to_string(i),
                             700 + static_cast<uint64_t>(i)));
  }

  const int64_t hits_before =
      CounterValue("restune_meta_base_learner_cache_hits_total");
  const int64_t misses_before =
      CounterValue("restune_meta_base_learner_cache_misses_total");
  const int64_t fits_before =
      CounterValue("restune_meta_base_learner_fits_total");

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;  // restune-lint: allow(raw-thread)
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tasks, &failures] {
      for (int round = 0; round < kRounds; ++round) {
        for (const TuningTask& task : tasks) {
          Result<BaseLearner> learner = BaseLearner::Train(task);
          if (!learner.ok() || learner.value().fingerprint().empty()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // restune-lint: allow(raw-thread)
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  const int64_t hits =
      CounterValue("restune_meta_base_learner_cache_hits_total") -
      hits_before;
  const int64_t misses =
      CounterValue("restune_meta_base_learner_cache_misses_total") -
      misses_before;
  const int64_t fits =
      CounterValue("restune_meta_base_learner_fits_total") - fits_before;
  constexpr int64_t kTotalCalls = kThreads * kRounds * kTasks;
  // Exactly one of hit/miss per call, and every miss trained a learner.
  EXPECT_EQ(hits + misses, kTotalCalls);
  EXPECT_EQ(fits, misses);
  // At least one fit per distinct fingerprint; at most one per thread per
  // fingerprint (threads can race past Lookup before the first Insert).
  EXPECT_GE(fits, kTasks);
  EXPECT_LE(fits, static_cast<int64_t>(kThreads) * kTasks);
  EXPECT_EQ(BaseLearnerCache::Global()->size(), static_cast<size_t>(kTasks));
  BaseLearnerCache::Global()->Clear();
}

}  // namespace
}  // namespace restune
