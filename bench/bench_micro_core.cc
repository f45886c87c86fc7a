// Google-benchmark microbenchmarks of the algorithmic phases behind paper
// Table 3: GP fitting / prediction, acquisition optimization, meta-learner
// weight updates, and one full simulator evaluation. These quantify the
// "Model Update" and "Knobs Recommendation" costs independent of workload
// replay. BM_TrainBaseLearnersCold times a server's cold base-learner
// training, BM_EnsembleAcquisition the recommendation step over the
// meta-learner ensemble. The last two time the served server's durable
// write: the CRC-32 that seals every file, and one whole checkpoint of the
// paper repository.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "bo/lhs.h"
#include "common/byte_codec.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "dbsim/simulator.h"
#include "gp/multi_output_gp.h"
#include "meta/base_learner_cache.h"
#include "meta/data_repository.h"
#include "meta/meta_learner.h"
#include "service/restune_server.h"
#include "tuner/harness.h"

namespace restune {
namespace {

std::vector<Observation> SyntheticObservations(size_t n, size_t dim,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> obs;
  for (const Vector& theta : LatinHypercubeSample(n, dim, &rng)) {
    Observation o;
    o.theta = theta;
    o.res = 50.0 + 30.0 * theta[0] + rng.Gaussian(0, 0.5);
    o.tps = 10000.0 - 2000.0 * theta[0] + rng.Gaussian(0, 50.0);
    o.lat = 5.0 + 3.0 * theta[dim - 1] + rng.Gaussian(0, 0.05);
    obs.push_back(std::move(o));
  }
  return obs;
}

void BM_GpFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 14;
  const auto obs = SyntheticObservations(n, dim, 1);
  GpOptions options;
  options.optimize_hyperparams = false;
  for (auto _ : state) {
    MultiOutputGp gp(dim, options);
    benchmark::DoNotOptimize(gp.Fit(obs));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_GpFit)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Complexity();

void BM_GpHyperparamFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 14;
  const auto obs = SyntheticObservations(n, dim, 1);
  GpOptions options;
  options.optimize_hyperparams = true;
  options.hyperopt_max_iters = 20;
  options.hyperopt_restarts = 0;
  for (auto _ : state) {
    MultiOutputGp gp(dim, options);
    benchmark::DoNotOptimize(gp.Fit(obs));
  }
}
BENCHMARK(BM_GpHyperparamFit)->Arg(50)->Arg(100);

// Cold training of a repository's base-learners (paper Section 6.3): one
// multi-output GP per task, with hyper-parameter search, as a server does
// when it opens its first session. 34 synthetic tasks of 80 observations
// at 14 knobs; the cache is cleared before each iteration so every learner
// fits. Axes: task count and pool size.
void BM_TrainBaseLearnersCold(benchmark::State& state) {
  const size_t num_tasks = static_cast<size_t>(state.range(0));
  DataRepository repo;
  for (size_t b = 0; b < num_tasks; ++b) {
    TuningTask task;
    task.name = "task" + std::to_string(b);
    task.meta_feature = {1.0, 0.0};
    task.observations = SyntheticObservations(80, 14, 100 + b);
    (void)repo.AddTask(std::move(task));
  }
  ThreadPool pool(static_cast<size_t>(state.range(1)));
  const auto keep = [](const TuningTask&) { return true; };
  for (auto _ : state) {
    state.PauseTiming();
    BaseLearnerCache::Global()->Clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(repo.TrainBaseLearners(keep, &pool));
  }
}
BENCHMARK(BM_TrainBaseLearnersCold)
    ->Args({34, 1})
    ->Args({34, 3})
    ->Unit(benchmark::kMillisecond);

void BM_GpPredict(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 14;
  GpOptions options;
  options.optimize_hyperparams = false;
  MultiOutputGp gp(dim, options);
  (void)gp.Fit(SyntheticObservations(n, dim, 2));
  const Vector q(dim, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.Predict(MetricKind::kRes, q));
  }
}
BENCHMARK(BM_GpPredict)->Arg(50)->Arg(200);

// Fitted-model fixture shared across benchmark repetitions: google-
// benchmark re-enters the benchmark function once per repetition, and an
// exact n=3200 GP fit costs tens of seconds — far more than the timed
// region. Benchmarks run sequentially, so a plain function-local cache
// keyed by n is safe. The leak is intentional (process-lifetime fixtures).
const MultiOutputGp& ExactGpFixture(size_t n, size_t dim) {
  static auto* cache =
      // restune-lint: allow(naked-new) -- intentional leak, bench fixture
      new std::map<size_t, std::unique_ptr<MultiOutputGp>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    GpOptions options;
    options.optimize_hyperparams = false;
    auto gp = std::make_unique<MultiOutputGp>(dim, options);
    (void)gp->Fit(SyntheticObservations(n, dim, 3));
    it = cache->emplace(n, std::move(gp)).first;
  }
  return *it->second;
}

// Candidate-scoring throughput of the CEI sweep over the exact GP: one
// full MaximizeAcquisitionBatch call per iteration, reporting candidates
// scored per second plus one JSON line per configuration so runs can be
// diffed. Axes: training-set size n and pool size.
void BM_AcquisitionThroughput(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const size_t dim = 14;
  GpSurrogate surrogate(&ExactGpFixture(n, dim));
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 60.0;
  ctx.lambda_tps = 9000.0;
  ctx.lambda_lat = 8.0;
  ThreadPool pool(static_cast<size_t>(threads));
  AcqOptimizerOptions acq;
  acq.num_candidates = 512;
  acq.num_refine = 4;
  acq.pool = &pool;
  Rng rng(4);
  int64_t candidates = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto f = [&](const std::vector<Matrix>& blocks) {
      return ConstrainedExpectedImprovementBatch(surrogate, blocks, ctx,
                                                 &pool);
    };
    benchmark::DoNotOptimize(MaximizeAcquisitionBatch(f, dim, &rng, acq));
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    candidates += acq.num_candidates;
  }
  state.counters["candidates_per_sec"] = benchmark::Counter(
      static_cast<double>(candidates), benchmark::Counter::kIsRate);
  std::printf(
      "{\"bench\":\"acq_throughput\",\"train_n\":%zu,\"threads\":%d,"
      "\"candidates_per_sec\":%.0f}\n",
      n, threads,
      seconds > 0.0 ? static_cast<double>(candidates) / seconds : 0.0);
}
BENCHMARK(BM_AcquisitionThroughput)
    ->Args({50, 1})
    ->Args({50, 4})
    ->Args({200, 1})
    ->Args({200, 4})
    ->Args({800, 1})
    ->Args({800, 4})
    ->Args({3200, 1})
    ->Args({3200, 4})
    ->Unit(benchmark::kMillisecond);

// The paper-setting meta-learner: 34 base learners of 80 observations
// each, plus a target GP holding 12 observations, at `dim` knobs. Built
// once per dim and kept for the process (benchmark functions re-enter
// per repetition).
const MetaLearner& EnsembleFixture(size_t dim) {
  static auto* cache =
      // restune-lint: allow(naked-new) -- intentional leak, bench fixture
      new std::map<size_t, std::unique_ptr<MetaLearner>>();
  auto it = cache->find(dim);
  if (it == cache->end()) {
    std::vector<BaseLearner> bases;
    for (size_t b = 0; b < 34; ++b) {
      TuningTask task;
      task.name = "task";
      task.meta_feature = {1.0, 0.0};
      task.observations = SyntheticObservations(80, dim, 100 + b);
      bases.push_back(*BaseLearner::Train(task));
    }
    auto learner = std::make_unique<MetaLearner>(dim, std::move(bases),
                                                 Vector{1.0, 0.0});
    for (const Observation& o : SyntheticObservations(12, dim, 78)) {
      (void)learner->AddObservation(o);
    }
    it = cache->emplace(dim, std::move(learner)).first;
  }
  return *it->second;
}

// One CEI MaximizeAcquisitionBatch over the ensemble (default sweep of 512
// candidates and 4 refinements) per iteration: the recommendation step of
// a meta-learned session, where the ensemble mean (paper Eq. 6) sums every
// base learner's posterior mean over every candidate. Axes: knob count
// (14 for the paper's CPU space, 3 for a fleet tenant) and pool size.
void BM_EnsembleAcquisition(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const MetaLearner& learner = EnsembleFixture(dim);
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 0.0;
  ctx.lambda_tps = -0.5;
  ctx.lambda_lat = 0.5;
  ThreadPool pool(static_cast<size_t>(state.range(1)));
  AcqOptimizerOptions acq;
  acq.pool = &pool;
  Rng rng(8);
  const auto cei = [&](const std::vector<Matrix>& blocks) {
    return ConstrainedExpectedImprovementBatch(learner, blocks, ctx, &pool);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaximizeAcquisitionBatch(cei, dim, &rng, acq));
  }
}
BENCHMARK(BM_EnsembleAcquisition)
    ->Args({14, 1})
    ->Args({14, 4})
    ->Args({3, 1})
    ->Args({3, 4})
    ->Unit(benchmark::kMillisecond);

// One observation into an ensemble of range(0) base learners whose target
// history already holds range(1) - 1 points; a 40-point history puts the
// O(n²) ranking-loss pair scan of the dynamic weights into the timing.
void BM_MetaLearnerUpdate(benchmark::State& state) {
  const size_t dim = 14;
  const size_t num_bases = static_cast<size_t>(state.range(0));
  const size_t history = static_cast<size_t>(state.range(1));
  std::vector<BaseLearner> bases;
  for (size_t b = 0; b < num_bases; ++b) {
    TuningTask task;
    task.name = "task";
    task.meta_feature = {1.0, 0.0};
    task.observations = SyntheticObservations(60, dim, 10 + b);
    bases.push_back(*BaseLearner::Train(task));
  }
  MetaLearnerOptions options;
  options.static_weight_iterations = 0;
  options.ranking_loss_samples = 20;
  options.target_gp.hyperopt_max_iters = 15;
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    MetaLearner learner(dim, bases, {1.0, 0.0}, options);
    const auto warm = SyntheticObservations(history, dim, 77);
    for (size_t i = 0; i + 1 < warm.size(); ++i) {
      (void)learner.AddObservation(warm[i]);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(learner.AddObservation(warm.back()));
  }
}
BENCHMARK(BM_MetaLearnerUpdate)
    ->Args({4, 20})
    ->Args({16, 20})
    ->Args({34, 20})
    ->Args({34, 40})
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorEvaluate(benchmark::State& state) {
  DbInstanceSimulator sim(CpuKnobSpace(), HardwareInstance('A').value(),
                          MakeWorkload(WorkloadKind::kTwitter).value());
  const Vector theta = sim.knob_space().DefaultTheta();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Evaluate(theta));
  }
}
BENCHMARK(BM_SimulatorEvaluate);

// CRC-32 over range(0) bytes; 640 KiB is about one served checkpoint of
// the paper repository.
void BM_Crc32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextUint64() & 0xff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Crc32)->Arg(640 << 10)->Unit(benchmark::kMicrosecond);

// One SaveCheckpointFile of a server holding the paper's 34-task
// repository (14 CPU knobs, 80 observations per task): encode, CRC, write
// and rename, which a durable server pays on every state change.
void BM_ServerCheckpoint(benchmark::State& state) {
  // Built once per process: benchmark functions re-enter per repetition.
  // restune-lint: allow(naked-new) -- intentional leak, bench fixture
  static auto* server = new ResTuneServer();
  static const bool filled = [] {
    const DataRepository paper = BuildPaperRepository(
        CpuKnobSpace(), TrainDefaultCharacterizer(7), ExperimentConfig{});
    for (const TuningTask& task : paper.tasks()) {
      if (!server->AddHistoricalTask(task).ok()) return false;
    }
    return true;
  }();
  if (!filled) {
    state.SkipWithError("could not fill the repository");
    return;
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("restune_bm_checkpoint_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "server.ckpt").string();
  for (auto _ : state) {
    if (!server->SaveCheckpointFile(path).ok()) {
      state.SkipWithError("checkpoint failed");
      break;
    }
  }
  std::error_code ec;
  state.counters["bytes"] =
      static_cast<double>(std::filesystem::file_size(path, ec));
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_ServerCheckpoint)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace restune
