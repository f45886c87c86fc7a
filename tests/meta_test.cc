#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "bo/lhs.h"
#include "common/byte_codec.h"
#include "common/fnv.h"
#include "common/thread_pool.h"
#include "gp/gp_serialization.h"
#include "meta/base_learner.h"
#include "meta/base_learner_cache.h"
#include "meta/data_repository.h"
#include "meta/meta_feature.h"
#include "meta/meta_learner.h"
#include "meta/standardizer.h"
#include "obs/metrics.h"
#include "sqlgen/generator.h"

namespace restune {
namespace {

/// A file name under the test temp directory that is this process's own:
/// ctest runs this binary twice at once (`*_threads1` at one thread).
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

Observation MakeObs(Vector theta, double res, double tps, double lat) {
  Observation o;
  o.theta = std::move(theta);
  o.res = res;
  o.tps = tps;
  o.lat = lat;
  return o;
}

// ------------------------------------------------------------ standardizer

TEST(StandardizerTest, ZeroMeanUnitVariance) {
  std::vector<Observation> obs = {
      MakeObs({0.1}, 10, 100, 1), MakeObs({0.2}, 20, 200, 2),
      MakeObs({0.3}, 30, 300, 3), MakeObs({0.4}, 40, 400, 4)};
  const auto s = MetricStandardizer::FromObservations(obs);
  for (MetricKind kind : kAllMetricKinds) {
    double mean = 0.0, var = 0.0;
    for (const Observation& o : obs) {
      const double z = s.Standardize(kind, o.metric(kind));
      mean += z;
      var += z * z;
    }
    mean /= obs.size();
    var /= obs.size();
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-9);
  }
}

TEST(StandardizerTest, RoundTrips) {
  std::vector<Observation> obs = {MakeObs({0}, 5, 10, 1),
                                  MakeObs({1}, 7, 30, 9)};
  const auto s = MetricStandardizer::FromObservations(obs);
  for (double v : {3.0, 5.5, 100.0}) {
    EXPECT_NEAR(
        s.Destandardize(MetricKind::kRes, s.Standardize(MetricKind::kRes, v)),
        v, 1e-9);
  }
}

TEST(StandardizerTest, ConstantMetricSafe) {
  std::vector<Observation> obs = {MakeObs({0}, 5, 5, 5),
                                  MakeObs({1}, 5, 5, 5)};
  const auto s = MetricStandardizer::FromObservations(obs);
  EXPECT_NEAR(s.Standardize(MetricKind::kTps, 5.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(s.Standardize(MetricKind::kTps, 7.0)));
}

// ------------------------------------------------------------ base learner

std::vector<Observation> LinearTaskObservations(double slope, size_t n,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> obs;
  for (const Vector& theta : LatinHypercubeSample(n, 2, &rng)) {
    obs.push_back(MakeObs(theta, slope * theta[0] + 5.0,
                          1000.0 - slope * 50.0 * theta[0],
                          1.0 + slope * theta[1]));
  }
  return obs;
}

TuningTask LinearTask(const std::string& name, double slope, size_t n = 30) {
  TuningTask task;
  task.name = name;
  task.workload = name;
  task.hardware = "instance-A";
  task.meta_feature = {slope, 1.0 - slope};
  task.observations = LinearTaskObservations(slope, n, 42);
  return task;
}

TEST(BaseLearnerTest, PredictsStandardizedOrdering) {
  const auto learner = BaseLearner::Train(LinearTask("t", 10.0));
  ASSERT_TRUE(learner.ok());
  const double low = learner->PredictMean(MetricKind::kRes, {0.1, 0.5});
  const double high = learner->PredictMean(MetricKind::kRes, {0.9, 0.5});
  EXPECT_LT(low, high);
  EXPECT_LT(std::fabs(low), 4.0);
  EXPECT_LT(std::fabs(high), 4.0);
}

TEST(BaseLearnerTest, MeanFastPathMatchesFullPredict) {
  const auto learner = BaseLearner::Train(LinearTask("t", 3.0));
  ASSERT_TRUE(learner.ok());
  const Vector q = {0.33, 0.77};
  EXPECT_NEAR(learner->PredictMean(MetricKind::kLat, q),
              learner->Predict(MetricKind::kLat, q).mean, 1e-9);
}

TEST(BaseLearnerTest, RejectsEmptyTask) {
  TuningTask empty;
  empty.name = "empty";
  EXPECT_FALSE(BaseLearner::Train(empty).ok());
}

// ------------------------------------------------------------ Epanechnikov

TEST(EpanechnikovTest, KernelShape) {
  EXPECT_DOUBLE_EQ(EpanechnikovKernel(0.0), 0.75);
  EXPECT_DOUBLE_EQ(EpanechnikovKernel(1.0), 0.0);
  EXPECT_DOUBLE_EQ(EpanechnikovKernel(1.5), 0.0);
  EXPECT_GT(EpanechnikovKernel(0.3), EpanechnikovKernel(0.7));
  EXPECT_DOUBLE_EQ(EpanechnikovKernel(-0.5), EpanechnikovKernel(0.5));
}

// ------------------------------------------------------------ meta learner

class MetaLearnerTest : public ::testing::Test {
 protected:
  std::vector<BaseLearner> MakeBases() {
    std::vector<BaseLearner> bases;
    bases.push_back(*BaseLearner::Train(LinearTask("similar", 10.0)));
    bases.push_back(*BaseLearner::Train(LinearTask("dissimilar", -10.0)));
    return bases;
  }

  MetaLearnerOptions FastOptions(int static_iters = 3) {
    MetaLearnerOptions options;
    options.static_weight_iterations = static_iters;
    options.bandwidth = 1.0;
    options.ranking_loss_samples = 20;
    options.target_gp.hyperopt_max_iters = 15;
    return options;
  }

  Observation TargetObs(const Vector& theta, Rng* rng) {
    return MakeObs(theta, 10.0 * theta[0] + 50.0 + rng->Gaussian(0, 0.05),
                   5000.0 - 500.0 * theta[0] + rng->Gaussian(0, 5.0),
                   2.0 + 10.0 * theta[1] + rng->Gaussian(0, 0.05));
  }
};

TEST_F(MetaLearnerTest, StaticWeightsFavorCloserMetaFeature) {
  MetaLearnerOptions options = FastOptions(/*static_iters=*/10);
  options.bandwidth = 3.0;  // wide enough to include the similar task
  MetaLearner learner(2, MakeBases(), {9.0, -8.0}, options);
  Rng rng(1);
  ASSERT_TRUE(learner.AddObservation(TargetObs({0.5, 0.5}, &rng)).ok());
  ASSERT_TRUE(learner.in_static_phase());
  const auto& w = learner.weights();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_GT(w[0], w[1]);
  EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-9);
}

TEST_F(MetaLearnerTest, DynamicWeightsIdentifySimilarTask) {
  MetaLearner learner(2, MakeBases(), {9.0, -8.0}, FastOptions(3));
  Rng rng(2);
  for (const Vector& theta : LatinHypercubeSample(15, 2, &rng)) {
    ASSERT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
  }
  EXPECT_FALSE(learner.in_static_phase());
  const auto& w = learner.weights();
  EXPECT_LT(w[1], 0.15);
  EXPECT_GT(w[0] + w[2], 0.85);
}

TEST_F(MetaLearnerTest, TargetWeightGrowsWithObservations) {
  MetaLearner learner(2, MakeBases(), {9.0, -8.0}, FastOptions(3));
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const Vector theta = {rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
  }
  // With 40 observations the target learner carries substantial weight
  // (Fig. 6(c) behaviour: the target dominates eventually).
  EXPECT_GT(learner.weights().back(), 0.2);
}

TEST_F(MetaLearnerTest, RankingLossLowerForSimilarTask) {
  MetaLearner learner(2, MakeBases(), {9.0, -8.0}, FastOptions(3));
  Rng rng(4);
  for (const Vector& theta : LatinHypercubeSample(20, 2, &rng)) {
    ASSERT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
  }
  const auto losses = learner.MeanRankingLossFractions();
  ASSERT_EQ(losses.size(), 2u);
  EXPECT_LT(losses[0], losses[1]);
  EXPECT_GT(losses[1], 0.4);
}

TEST_F(MetaLearnerTest, PredictionUsesTargetVarianceOnly) {
  MetaLearnerOptions options = FastOptions(0);
  MetaLearner learner(2, MakeBases(), {9.0, -8.0}, options);
  Rng rng(5);
  for (const Vector& theta : LatinHypercubeSample(12, 2, &rng)) {
    ASSERT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
  }
  const Vector at_data = learner.target_observations()[0].theta;
  const double var_near =
      learner.PredictMetric(MetricKind::kRes, at_data).variance;
  const double var_far =
      learner.PredictMetric(MetricKind::kRes, {0.999, 0.001}).variance;
  EXPECT_LT(var_near, var_far);
}

TEST_F(MetaLearnerTest, RescaledThresholdTracksDefaultPrediction) {
  MetaLearner learner(2, MakeBases(), {9.0, -8.0}, FastOptions(2));
  Rng rng(6);
  const Vector default_theta = {0.5, 0.5};
  for (const Vector& theta : LatinHypercubeSample(10, 2, &rng)) {
    ASSERT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
  }
  const double lambda_tps =
      learner.RescaledThreshold(MetricKind::kTps, default_theta);
  EXPECT_NEAR(lambda_tps,
              learner.PredictMetric(MetricKind::kTps, default_theta).mean,
              1e-12);
}

TEST_F(MetaLearnerTest, WorksWithNoBaseLearners) {
  MetaLearner learner(2, {}, {}, FastOptions(0));
  Rng rng(7);
  for (const Vector& theta : LatinHypercubeSample(8, 2, &rng)) {
    ASSERT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
  }
  EXPECT_NEAR(learner.weights().back(), 1.0, 1e-9);
  EXPECT_LT(learner.PredictMetric(MetricKind::kRes, {0.1, 0.5}).mean,
            learner.PredictMetric(MetricKind::kRes, {0.9, 0.5}).mean);
}

TEST_F(MetaLearnerTest, CeiBlocksAreBitIdenticalAcrossPoolSizes) {
  // 150 rows cut into the optimizer's sweep blocks (two full blocks and a
  // partial one) and scored by the block CEI as one pool loop whose tasks
  // run the ensemble inline. Every pool size must give the bits of the
  // unsplit 150-row batch, and so must each block scored on its own. The
  // learners hold more than one 48-row solve block, so the blocked
  // triangular solve takes its SIMD panel path.
  const auto loops = [] {
    return obs::MetricsRegistry::Global()
        ->GetCounter("restune_pool_loops_total")
        ->Value();
  };
  for (bool target_variance_only : {true, false}) {
    MetaLearnerOptions options = FastOptions(3);
    options.target_variance_only = target_variance_only;
    std::vector<BaseLearner> bases;
    bases.push_back(*BaseLearner::Train(LinearTask("similar", 10.0, 100)));
    bases.push_back(*BaseLearner::Train(LinearTask("dissimilar", -10.0, 100)));
    MetaLearner learner(2, std::move(bases), {9.0, -8.0}, options);
    Rng rng(8);
    for (const Vector& theta : LatinHypercubeSample(12, 2, &rng)) {
      ASSERT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
    }
    Matrix thetas(150, 2);
    for (size_t r = 0; r < thetas.rows(); ++r) {
      thetas(r, 0) = rng.Uniform();
      thetas(r, 1) = rng.Uniform();
    }
    std::vector<Matrix> blocks;
    for (size_t begin = 0; begin < thetas.rows();
         begin += kAcquisitionBlockRows) {
      const size_t end =
          std::min<size_t>(thetas.rows(), begin + kAcquisitionBlockRows);
      Matrix& block = blocks.emplace_back(end - begin, 2);
      for (size_t r = begin; r < end; ++r) {
        block(r - begin, 0) = thetas(r, 0);
        block(r - begin, 1) = thetas(r, 1);
      }
    }
    const Vector center = {0.5, 0.5};
    AcquisitionContext ctx;
    ctx.has_feasible = true;
    ctx.best_feasible_res =
        learner.PredictMetric(MetricKind::kRes, center).mean;
    ctx.lambda_tps = learner.RescaledThreshold(MetricKind::kTps, center);
    ctx.lambda_lat = learner.RescaledThreshold(MetricKind::kLat, center);
    ThreadPool serial(1), three(3), wide(4);
    const std::vector<double> reference =
        ConstrainedExpectedImprovementBatch(learner, {thetas}, ctx, &serial)
            .front();
    ASSERT_EQ(reference.size(), thetas.rows());
    const int64_t loops_before = loops();
    const BlockValues pooled =
        ConstrainedExpectedImprovementBatch(learner, blocks, ctx, &wide);
    EXPECT_EQ(loops(), loops_before + 1);
    for (ThreadPool* pool : {&serial, &three, &wide}) {
      const BlockValues values =
          pool == &wide
              ? pooled
              : ConstrainedExpectedImprovementBatch(learner, blocks, ctx, pool);
      ASSERT_EQ(values.size(), blocks.size());
      size_t row = 0;
      for (size_t b = 0; b < blocks.size(); ++b) {
        const std::vector<double> alone =
            ConstrainedExpectedImprovementBatch(learner, {blocks[b]}, ctx, pool)
                .front();
        ASSERT_EQ(values[b].size(), blocks[b].rows());
        for (size_t r = 0; r < blocks[b].rows(); ++r, ++row) {
          EXPECT_EQ(values[b][r], reference[row])
              << pool->num_threads() << " threads, row " << row;
          EXPECT_EQ(alone[r], reference[row])
              << pool->num_threads() << " threads, row " << row << " alone";
        }
      }
    }
    // The posteriors under the values keep their bits too.
    for (MetricKind kind : kAllMetricKinds) {
      const std::vector<GpPrediction> whole =
          learner.PredictMetricBatch(kind, thetas, &serial);
      size_t row = 0;
      for (const Matrix& block : blocks) {
        const std::vector<GpPrediction> alone =
            learner.PredictMetricBatch(kind, block, &wide);
        for (size_t r = 0; r < block.rows(); ++r, ++row) {
          EXPECT_EQ(alone[r].mean, whole[row].mean) << "row " << row;
          EXPECT_EQ(alone[r].variance, whole[row].variance) << "row " << row;
        }
      }
    }
  }
}

TEST_F(MetaLearnerTest, RejectsWrongDimension) {
  MetaLearner learner(2, {}, {}, FastOptions(1));
  EXPECT_FALSE(learner.AddObservation(MakeObs({0.5}, 1, 2, 3)).ok());
}


TEST_F(MetaLearnerTest, DilutionGuardSuppressesUselessCrowd) {
  // Many anticorrelated learners plus one good one: without the guard the
  // crowd can capture weight by chance; with it they are ineligible.
  std::vector<BaseLearner> bases;
  bases.push_back(*BaseLearner::Train(LinearTask("good", 10.0)));
  for (int i = 0; i < 6; ++i) {
    bases.push_back(*BaseLearner::Train(
        LinearTask("bad" + std::to_string(i), -10.0 - i)));
  }
  MetaLearnerOptions options = FastOptions(0);
  options.prune_worse_than_random = true;
  MetaLearner learner(2, std::move(bases), {9.0, -8.0}, options);
  Rng rng(21);
  for (const Vector& theta : LatinHypercubeSample(15, 2, &rng)) {
    ASSERT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
  }
  const auto& w = learner.weights();
  double bad_mass = 0.0;
  for (size_t i = 1; i + 1 < w.size(); ++i) bad_mass += w[i];
  EXPECT_LT(bad_mass, 0.05);
  EXPECT_GT(w[0] + w.back(), 0.95);
}

std::vector<Observation> SyntheticObservations(size_t n, size_t dim,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> obs;
  for (const Vector& theta : LatinHypercubeSample(n, dim, &rng)) {
    obs.push_back(MakeObs(theta, 50.0 + 30.0 * theta[0] + rng.Gaussian(0, 0.5),
                          10000.0 - 2000.0 * theta[0] + rng.Gaussian(0, 50.0),
                          5.0 + 3.0 * theta[dim - 1] + rng.Gaussian(0, 0.05)));
  }
  return obs;
}

TEST(MetaLearnerPinTest, DynamicWeightsKeepTheirBits) {
  // Pins the bit patterns of the Eq. 9 weights and the mean loss fractions
  // after each of 70 observations of a 34-learner, 14-knob ensemble. Seven
  // posterior samples over 35 learners and 3 metrics make the draw count of
  // every odd-sized history odd, so the Box-Muller cache carries from one
  // pass into the next; past 64 observations the pair scan runs on a
  // shuffled subsample. Each row is an FNV-1a hash of one observation's
  // weights and fractions; the same bits are expected at every pool size.
  // The rows were recorded from a GCC build, the compiler the repository's
  // other bit-exact goldens (ctest -L repro) are checked with; other
  // compilers check only that the weights stay a distribution.
  constexpr size_t kDim = 14;
  std::vector<BaseLearner> bases;
  for (size_t b = 0; b < 34; ++b) {
    TuningTask task;
    task.name = "task" + std::to_string(b);
    task.meta_feature = {1.0, 0.0};
    task.observations = SyntheticObservations(30, kDim, 10 + b);
    bases.push_back(*BaseLearner::Train(task));
  }
  MetaLearnerOptions options;
  options.static_weight_iterations = 0;
  options.ranking_loss_samples = 7;
  options.target_gp.hyperopt_max_iters = 15;
  MetaLearner learner(kDim, std::move(bases), {1.0, 0.0}, options);
  static const uint64_t kGolden[] = {
      0x09f3f1efa0938678ull, 0x926a15cd00f0bef4ull, 0x03dd8bc4f064b924ull,
      0x6fb1e38e14616dd8ull, 0x1b8072074b113f3bull, 0xc9a777c7fc73c844ull,
      0xd8508a1b7d3a354aull, 0x8cb20f09bba043afull, 0xcf29e69ea7ec7daeull,
      0x5625dc460dab550aull, 0xe3c3687c6a715661ull, 0xa40862930cfc4b8aull,
      0xb9429c8cf015c382ull, 0xce144784275cda86ull, 0x455d6216d355bf58ull,
      0x4df53e05f112cb70ull, 0xe7c5d33de03e066dull, 0x0e1c9a8a667f7331ull,
      0xc2175ff9ad2fab27ull, 0x3e9c5e955284a9edull, 0xa00831a930a0bfe7ull,
      0xb5e52a89a6994d7cull, 0xb9d1abc6fc0cd92cull, 0x6c927969aa7ce6c5ull,
      0xd9779f95941046adull, 0x59a84395d4873d25ull, 0xfafb1cc194034b7bull,
      0xae696ffbf038f110ull, 0x117be14160203ab9ull, 0xcd11f60f54fad93cull,
      0x32f25052dddf142dull, 0x12d64d464804c3b6ull, 0x6bccd1fa9617e0a1ull,
      0xd088e6e394d12ad4ull, 0xcab71ed55f6796c7ull, 0x9f61eb4d0085bcd6ull,
      0xbec559a320a52228ull, 0x17b11cff573304caull, 0x86ad3269ca82f8b2ull,
      0x8ebf5c04071d7714ull, 0xd26dca5abb76b5bfull, 0x412b363d9221e93bull,
      0xe4909130094faf46ull, 0x6b9907d87f38a864ull, 0xcfdc708fa69538a1ull,
      0x41d1dcb3d7ffc073ull, 0xc6a615c1427c45f0ull, 0xa249241ef27ce66cull,
      0xfb294d4591afefdeull, 0x537d2253bba4d5f3ull, 0xb616ae28dc77ce62ull,
      0x037944736d18b781ull, 0x4e8d4f750ab37e47ull, 0x8919eb56d8fc4bc7ull,
      0x40e34ff25c427a8full, 0x69ddea84ca3ad557ull, 0x95c1626f83cfd9e4ull,
      0x7a7d4078ec8579d0ull, 0x9d186c357d7aeebaull, 0x5c2cd69f50e4d53eull,
      0x5531121b21bf1566ull, 0xa0d6bdef357e3137ull, 0xd49afd605f375f22ull,
      0xc876d66df2392ce7ull, 0xd8a1886c105ce606ull, 0xe1b8e9bc02afe598ull,
      0x608f11d7c810482eull, 0x43fff72b82d6b75cull, 0xb9da91b850a85094ull,
      0x1036c8a332c75915ull,
  };
  const std::vector<Observation> history =
      SyntheticObservations(70, kDim, 77);
  ASSERT_EQ(std::size(kGolden), history.size());
  for (size_t t = 0; t < history.size(); ++t) {
    ASSERT_TRUE(learner.AddObservation(history[t]).ok());
    Fnv1a hash;
    for (double w : learner.weights()) hash.AddDouble(w);
    for (double f : learner.MeanRankingLossFractions()) hash.AddDouble(f);
    double sum = 0.0;
    for (double w : learner.weights()) {
      ASSERT_TRUE(std::isfinite(w));
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
#if defined(__GNUC__) && !defined(__clang__)
    EXPECT_EQ(hash.hash(), kGolden[t])
        << "observation " << t + 1 << ": weights/fractions hash 0x"
        << hash.Hex();
#endif
  }
}

TEST_F(MetaLearnerTest, DegenerateRankingLossOptionsAreClamped) {
  // No samples (or a negative count) runs one; a one-point cap ranks two
  // points. Each degenerate setting must give the weights of its clamp.
  const auto weights_with = [&](int samples, int max_points) {
    MetaLearnerOptions options = FastOptions(0);
    options.ranking_loss_samples = samples;
    options.ranking_loss_max_points = max_points;
    MetaLearner learner(2, MakeBases(), {9.0, -8.0}, options);
    Rng rng(6);
    for (const Vector& theta : LatinHypercubeSample(12, 2, &rng)) {
      EXPECT_TRUE(learner.AddObservation(TargetObs(theta, &rng)).ok());
    }
    const std::vector<double> w = learner.weights();
    double sum = 0.0;
    for (double v : w) {
      EXPECT_TRUE(std::isfinite(v));
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    return w;
  };
  const std::vector<double> one_sample = weights_with(1, 64);
  EXPECT_EQ(weights_with(0, 64), one_sample);
  EXPECT_EQ(weights_with(-5, 64), one_sample);
  EXPECT_EQ(weights_with(20, 1), weights_with(20, 2));
}

// -------------------------------------------------------------- repository

TEST(DataRepositoryTest, AddAndFilter) {
  DataRepository repo;
  TuningTask a = LinearTask("sysbench", 1.0);
  a.hardware = "instance-A";
  TuningTask b = LinearTask("tpcc", 2.0);
  b.hardware = "instance-B";
  ASSERT_TRUE(repo.AddTask(a).ok());
  ASSERT_TRUE(repo.AddTask(b).ok());
  EXPECT_EQ(repo.num_tasks(), 2u);

  EXPECT_EQ(repo.TrainAllBaseLearners().size(), 2u);
  EXPECT_EQ(repo.TrainHoldOutWorkload("sysbench").size(), 1u);
  EXPECT_EQ(repo.TrainHoldOutHardware("instance-B").size(), 1u);
}

TEST(DataRepositoryTest, RejectsInvalidTasks) {
  DataRepository repo;
  EXPECT_FALSE(repo.AddTask(TuningTask{}).ok());
  TuningTask named;
  named.name = "x";
  EXPECT_FALSE(repo.AddTask(named).ok());
}

TEST(DataRepositoryTest, SaveLoadRoundTrip) {
  DataRepository repo;
  ASSERT_TRUE(repo.AddTask(LinearTask("alpha", 1.5, 5)).ok());
  ASSERT_TRUE(repo.AddTask(LinearTask("beta", -0.5, 7)).ok());
  const std::string path = TempPath("repo_roundtrip.bin");
  ASSERT_TRUE(repo.SaveToFile(path).ok());

  DataRepository loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  ASSERT_EQ(loaded.num_tasks(), 2u);
  EXPECT_EQ(loaded.tasks()[0].name, "alpha");
  EXPECT_EQ(loaded.tasks()[1].observations.size(), 7u);
  EXPECT_NEAR(loaded.tasks()[0].meta_feature[0], 1.5, 1e-9);
  EXPECT_NEAR(loaded.tasks()[0].observations[0].res,
              repo.tasks()[0].observations[0].res, 1e-6);
  std::remove(path.c_str());
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every task field, doubles by bit pattern; `internals` only on request.
void ExpectSameTasks(const std::vector<TuningTask>& a,
                     const std::vector<TuningTask>& b, bool with_internals) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].name, b[t].name);
    EXPECT_EQ(a[t].hardware, b[t].hardware);
    EXPECT_EQ(a[t].workload, b[t].workload);
    EXPECT_TRUE(SameBits(a[t].meta_feature, b[t].meta_feature));
    ASSERT_EQ(a[t].observations.size(), b[t].observations.size());
    for (size_t i = 0; i < a[t].observations.size(); ++i) {
      const Observation& x = a[t].observations[i];
      const Observation& y = b[t].observations[i];
      EXPECT_TRUE(SameBits(x.theta, y.theta));
      EXPECT_TRUE(SameBits(x.res, y.res));
      EXPECT_TRUE(SameBits(x.tps, y.tps));
      EXPECT_TRUE(SameBits(x.lat, y.lat));
      if (with_internals) {
        EXPECT_TRUE(SameBits(x.internals, y.internals));
      }
    }
  }
}

TEST(DataRepositoryTest, InternalsRoundTripBitIdentically) {
  DataRepository repo;
  TuningTask alpha = LinearTask("alpha", 1.0 / 3.0, 6);
  for (Observation& obs : alpha.observations) {
    obs.internals = {obs.res * 0.1, -0.0, 1e-300};
  }
  ASSERT_TRUE(repo.AddTask(alpha).ok());
  ASSERT_TRUE(repo.AddTask(LinearTask("beta", -0.7, 4)).ok());
  const std::string path = TempPath("repo_internals.bin");
  ASSERT_TRUE(repo.SaveToFile(path).ok());
  DataRepository loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  ExpectSameTasks(repo.tasks(), loaded.tasks(), /*with_internals=*/true);
  std::remove(path.c_str());
}

TEST(DataRepositoryTest, NamesWithSpacesRoundTripExactly) {
  DataRepository repo;
  TuningTask task = LinearTask("tpcc 100w", 0.5, 3);
  task.hardware = "instance A (8 cores)";
  task.workload = " tpcc  100 warehouses ";
  ASSERT_TRUE(repo.AddTask(task).ok());
  const std::string path = TempPath("repo_spaces.bin");
  ASSERT_TRUE(repo.SaveToFile(path).ok());
  DataRepository loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  ASSERT_EQ(loaded.num_tasks(), 1u);
  EXPECT_EQ(loaded.tasks()[0].name, "tpcc 100w");
  EXPECT_EQ(loaded.tasks()[0].hardware, "instance A (8 cores)");
  EXPECT_EQ(loaded.tasks()[0].workload, " tpcc  100 warehouses ");
  std::remove(path.c_str());
}

TEST(DataRepositoryTest, JunkThetaTokenIsAStatusNotAThrow) {
  // A text repository line with a non-numeric θ token: refused with a
  // Status, never an exception escaping to the caller.
  const std::string path = TempPath("repo_junk.txt");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("task t A w\nmeta 0.5\nobs 0.5 junk | 1 2 3\nend\n", f);
  fclose(f);
  DataRepository repo;
  Status status;
  EXPECT_NO_THROW(status = repo.LoadFromFile(path));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(repo.num_tasks(), 0u);
  std::remove(path.c_str());
}

TEST(DataRepositoryTest, FailedSaveLeavesThePreviousFileIntact) {
  DataRepository repo;
  ASSERT_TRUE(repo.AddTask(LinearTask("kept", 1.0, 5)).ok());
  const std::string path = TempPath("repo_atomic.bin");
  ASSERT_TRUE(repo.SaveToFile(path).ok());
  // A learner whose GP was never fitted cannot be written; the failed save
  // must neither tear the existing file nor leave a temp file behind.
  const BaseLearner unfitted = BaseLearner::FromParts(
      "unfitted", {0.0}, MetricStandardizer(),
      std::make_shared<MultiOutputGp>(2), "");
  ASSERT_TRUE(repo.AddTask(LinearTask("lost", 2.0, 5)).ok());
  EXPECT_FALSE(repo.SaveToFile(path, {unfitted}).ok());
  DataRepository loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  ASSERT_EQ(loaded.num_tasks(), 1u);
  EXPECT_EQ(loaded.tasks()[0].name, "kept");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(DataRepositoryTest, LoadRejectsMalformedFile) {
  const std::string path = TempPath("repo_bad.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("task broken A w\nobs 0.5 | 1 2\nend\n", f);
  fclose(f);
  DataRepository repo;
  EXPECT_FALSE(repo.LoadFromFile(path).ok());
  std::remove(path.c_str());
}


/// A learner's name, meta-feature, fingerprint, standardizer and the
/// `WriteGpModel` bytes of its three GPs.
std::string LearnerBytes(const BaseLearner& learner) {
  ByteWriter out;
  out.PutString(learner.name());
  out.PutVector(learner.meta_feature());
  out.PutString(learner.fingerprint());
  for (MetricKind kind : kAllMetricKinds) {
    out.PutF64(learner.standardizer().mean(kind));
    out.PutF64(learner.standardizer().stddev(kind));
  }
  EXPECT_TRUE(WriteMultiOutputGp(&out, learner.gp()).ok());
  return out.str();
}

/// Five 14-knob tasks with an untrainable one (a NaN knob value) third.
DataRepository RepositoryWithAnInvalidTask() {
  DataRepository repo;
  for (uint64_t b = 0; b < 5; ++b) {
    TuningTask task;
    task.name = "pool_task" + std::to_string(b);
    task.meta_feature = {1.0, static_cast<double>(b)};
    task.observations = SyntheticObservations(24, 14, 300 + b);
    if (b == 2) task.observations[5].theta[3] = std::nan("");
    EXPECT_TRUE(repo.AddTask(std::move(task)).ok());
  }
  return repo;
}

TEST(DataRepositoryTest, PooledTrainingKeepsSerialBitsAndOrder) {
  const DataRepository repo = RepositoryWithAnInvalidTask();
  std::vector<std::string> expected;
  for (const TuningTask& task : repo.tasks()) {
    BaseLearnerCache::Global()->Clear();
    Result<BaseLearner> learner = BaseLearner::Train(task);
    if (learner.ok()) expected.push_back(LearnerBytes(learner.value()));
  }
  ASSERT_EQ(expected.size(), 4u);

  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    BaseLearnerCache::Global()->Clear();
    const std::vector<BaseLearner> learners = repo.TrainBaseLearners(
        [](const TuningTask&) { return true; }, &pool);
    ASSERT_EQ(learners.size(), expected.size()) << threads << " threads";
    // The invalid third task is skipped in place.
    const std::vector<std::string> names = {"pool_task0", "pool_task1",
                                            "pool_task3", "pool_task4"};
    for (size_t i = 0; i < learners.size(); ++i) {
      EXPECT_EQ(learners[i].name(), names[i]);
      EXPECT_EQ(LearnerBytes(learners[i]), expected[i])
          << "learner " << i << " at " << threads << " threads";
    }
  }
}

TEST(DataRepositoryTest, StatefulKeepRunsOncePerTaskInOrder) {
  const DataRepository repo = RepositoryWithAnInvalidTask();
  ThreadPool pool(4);
  std::vector<std::string> seen;
  const std::vector<BaseLearner> learners = repo.TrainBaseLearners(
      [&seen](const TuningTask& task) {
        seen.push_back(task.name);
        return seen.size() % 2 == 1;  // the first, third and fifth task
      },
      &pool);
  EXPECT_EQ(seen, (std::vector<std::string>{"pool_task0", "pool_task1",
                                            "pool_task2", "pool_task3",
                                            "pool_task4"}));
  ASSERT_EQ(learners.size(), 2u);  // the third is invalid
  EXPECT_EQ(learners[0].name(), "pool_task0");
  EXPECT_EQ(learners[1].name(), "pool_task4");
}

TEST(DataRepositoryTest, CompactMergesAndSubsamples) {
  DataRepository repo;
  ASSERT_TRUE(repo.AddTask(LinearTask("dup", 1.0, 30)).ok());
  ASSERT_TRUE(repo.AddTask(LinearTask("unique", 2.0, 10)).ok());
  ASSERT_TRUE(repo.AddTask(LinearTask("dup", 1.2, 25)).ok());
  EXPECT_EQ(repo.Compact(40), 1u);  // one duplicate merged
  ASSERT_EQ(repo.num_tasks(), 2u);
  // dup has 30+25=55 observations, capped at 40.
  const TuningTask* dup = nullptr;
  for (const TuningTask& t : repo.tasks()) {
    if (t.name == "dup") dup = &t;
  }
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->observations.size(), 40u);
  // Idempotent on a compacted repository.
  EXPECT_EQ(repo.Compact(40), 0u);
  EXPECT_EQ(repo.num_tasks(), 2u);
}

// ---------------------------------------------------------- characterizer

TEST(WorkloadCharacterizerTest, TrainsOnGeneratedQueriesAndSeparates) {
  Rng rng(13);
  std::vector<std::pair<std::string, double>> labeled;
  for (const WorkloadProfile& w : StandardWorkloads()) {
    WorkloadSqlGenerator gen(w);
    for (int i = 0; i < 200; ++i) labeled.push_back(gen.SampleWithCost(&rng));
  }
  WorkloadCharacterizer characterizer;
  ASSERT_TRUE(characterizer.Train(labeled).ok());
  EXPECT_GT(characterizer.oob_accuracy(), 0.7);

  WorkloadSqlGenerator twitter(MakeWorkload(WorkloadKind::kTwitter).value());
  WorkloadSqlGenerator tpcc(MakeWorkload(WorkloadKind::kTpcc).value());
  const Vector f_twitter =
      *characterizer.MetaFeature(twitter.Sample(150, &rng));
  const Vector f_tpcc = *characterizer.MetaFeature(tpcc.Sample(150, &rng));
  double sum = 0.0;
  for (double v : f_twitter) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(std::sqrt(SquaredDistance(f_twitter, f_tpcc)), 0.02);
}

TEST(WorkloadCharacterizerTest, VariationsCloserThanDifferentWorkload) {
  // The Table 5 property: Twitter variations stay closer to Twitter than a
  // different workload (TPC-C) does.
  Rng rng(17);
  std::vector<std::pair<std::string, double>> labeled;
  for (const WorkloadProfile& w : StandardWorkloads()) {
    WorkloadSqlGenerator gen(w);
    for (int i = 0; i < 200; ++i) labeled.push_back(gen.SampleWithCost(&rng));
  }
  WorkloadCharacterizer characterizer;
  ASSERT_TRUE(characterizer.Train(labeled).ok());

  auto feature = [&](const WorkloadProfile& w) {
    WorkloadSqlGenerator gen(w);
    return *characterizer.MetaFeature(gen.Sample(400, &rng));
  };
  const Vector target = feature(MakeWorkload(WorkloadKind::kTwitter).value());
  const double d1 =
      std::sqrt(SquaredDistance(target, feature(TwitterVariation(1).value())));
  const double d5 =
      std::sqrt(SquaredDistance(target, feature(TwitterVariation(5).value())));
  const double d_tpcc = std::sqrt(SquaredDistance(
      target, feature(MakeWorkload(WorkloadKind::kTpcc).value())));
  EXPECT_LT(d1, d_tpcc);
  EXPECT_LT(d5, d_tpcc);
}

TEST(WorkloadCharacterizerTest, UntrainedErrors) {
  WorkloadCharacterizer characterizer;
  EXPECT_FALSE(characterizer.MetaFeature({"SELECT 1"}).ok());
  EXPECT_FALSE(characterizer.ClassifyQuery("SELECT 1").ok());
  EXPECT_FALSE(characterizer.Train({}).ok());
}

}  // namespace
}  // namespace restune
