#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bo/acquisition.h"
#include "bo/approx_surrogate.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/quantile_forest.h"

namespace restune {
namespace {

// A smooth 2-D response with a unique minimum at (0.3, 0.7) — easy for any
// regressor, so the tests below check machinery, not model power.
double Bowl(double a, double b) {
  return (a - 0.3) * (a - 0.3) + (b - 0.7) * (b - 0.7);
}

std::vector<Observation> BowlHistory(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> obs(n);
  for (Observation& o : obs) {
    const double a = rng.Uniform();
    const double b = rng.Uniform();
    o.theta = {a, b};
    o.res = Bowl(a, b);
    o.tps = 100.0 - 40.0 * Bowl(a, b);
    o.lat = 1.0 + 2.0 * Bowl(a, b);
  }
  return obs;
}

TEST(FarthestPointSubsetTest, ReturnsAllRowsWhenKCoversThem) {
  Matrix points(3, 1);
  points(0, 0) = 0.1;
  points(1, 0) = 0.9;
  points(2, 0) = 0.5;
  const std::vector<size_t> all = FarthestPointSubset(points, 3);
  EXPECT_EQ(all, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(FarthestPointSubset(points, 10), (std::vector<size_t>{0, 1, 2}));
}

TEST(FarthestPointSubsetTest, KeepsTheHullOfALine) {
  // 1-D grid: greedy farthest-point from row 0 must grab the far endpoint
  // first, then midpoints — never two adjacent points before spread-out ones.
  const size_t n = 101;
  Matrix points(n, 1);
  for (size_t i = 0; i < n; ++i) points(i, 0) = static_cast<double>(i) / 100.0;
  const std::vector<size_t> subset = FarthestPointSubset(points, 3);
  ASSERT_EQ(subset.size(), 3u);
  // Sorted ascending: {0, 50, 100} — seed, midpoint, far end.
  EXPECT_EQ(subset[0], 0u);
  EXPECT_EQ(subset[1], 50u);
  EXPECT_EQ(subset[2], 100u);
}

TEST(FarthestPointSubsetTest, DeterministicAndSorted) {
  Rng rng(7);
  Matrix points(64, 3);
  for (size_t r = 0; r < 64; ++r) {
    for (size_t c = 0; c < 3; ++c) points(r, c) = rng.Uniform();
  }
  const std::vector<size_t> a = FarthestPointSubset(points, 17);
  const std::vector<size_t> b = FarthestPointSubset(points, 17);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a.size(), 17u);
}

TEST(QuantileForestTest, RejectsBadInputs) {
  QuantileForest forest;
  Matrix x(4, 2, 0.5);
  Vector y(3, 1.0);
  EXPECT_FALSE(forest.Fit(x, y).ok());  // size mismatch
  EXPECT_FALSE(forest.Fit(Matrix(), Vector()).ok());
  EXPECT_FALSE(forest.fitted());
}

TEST(QuantileForestTest, LearnsASmoothSurface) {
  const std::vector<Observation> history = BowlHistory(400, 21);
  Matrix x(history.size(), 2);
  Vector y(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    x(i, 0) = history[i].theta[0];
    x(i, 1) = history[i].theta[1];
    y[i] = history[i].res;
  }
  QuantileForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_TRUE(forest.fitted());
  EXPECT_EQ(forest.dim(), 2u);
  EXPECT_EQ(forest.num_observations(), 400u);

  // Interior predictions land near the true surface, and the minimum region
  // scores lower than the far corner.
  const ForestPrediction near_min = forest.Predict({0.3, 0.7});
  const ForestPrediction corner = forest.Predict({0.95, 0.05});
  EXPECT_NEAR(near_min.mean, Bowl(0.3, 0.7), 0.05);
  EXPECT_GT(corner.mean, near_min.mean);
  EXPECT_GE(near_min.variance, 0.0);
  EXPECT_GE(corner.variance, 0.0);
}

TEST(QuantileForestTest, DeterministicForAnyPoolSize) {
  const std::vector<Observation> history = BowlHistory(200, 33);
  Matrix x(history.size(), 2);
  Vector y(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    x(i, 0) = history[i].theta[0];
    x(i, 1) = history[i].theta[1];
    y[i] = history[i].res;
  }
  ThreadPool serial(1);
  ThreadPool wide(4);
  QuantileForest a, b;
  ASSERT_TRUE(a.Fit(x, y, &serial).ok());
  ASSERT_TRUE(b.Fit(x, y, &wide).ok());

  Matrix queries(32, 2);
  Rng rng(5);
  for (size_t r = 0; r < 32; ++r) {
    queries(r, 0) = rng.Uniform();
    queries(r, 1) = rng.Uniform();
  }
  const std::vector<ForestPrediction> pa = a.PredictBatch(queries, &serial);
  const std::vector<ForestPrediction> pb = b.PredictBatch(queries, &wide);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].mean, pb[i].mean) << "mean diverges at " << i;
    EXPECT_EQ(pa[i].variance, pb[i].variance) << "variance diverges at " << i;
  }
}

TEST(QuantileForestTest, QuantilesAreMonotonic) {
  const std::vector<Observation> history = BowlHistory(300, 44);
  Matrix x(history.size(), 2);
  Vector y(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    x(i, 0) = history[i].theta[0];
    x(i, 1) = history[i].theta[1];
    y[i] = history[i].res;
  }
  QuantileForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  const Vector q = {0.5, 0.5};
  const double p10 = forest.PredictQuantile(q, 0.1);
  const double p50 = forest.PredictQuantile(q, 0.5);
  const double p90 = forest.PredictQuantile(q, 0.9);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p90);
}

TEST(ScalableSurrogateTest, ExactBackendMatchesPlainGp) {
  const std::vector<Observation> history = BowlHistory(60, 9);
  GpOptions gp_options;
  gp_options.optimize_hyperparams = false;

  ScalableSurrogateOptions options;
  options.backend = SurrogateBackend::kExactGp;
  options.gp = gp_options;
  ScalableSurrogate surrogate(2, options);
  ASSERT_TRUE(surrogate.Fit(history).ok());
  ASSERT_TRUE(surrogate.fitted());
  EXPECT_EQ(surrogate.num_model_observations(), history.size());

  MultiOutputGp reference(2, gp_options);
  ASSERT_TRUE(reference.Fit(history).ok());
  const Vector theta = {0.4, 0.6};
  for (MetricKind kind : kAllMetricKinds) {
    const GpPrediction a = surrogate.PredictMetric(kind, theta);
    const GpPrediction b = reference.Predict(kind, theta);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.variance, b.variance);
  }
}

TEST(ScalableSurrogateTest, SubsetBackendCapsModelSize) {
  const std::vector<Observation> history = BowlHistory(300, 10);
  ScalableSurrogateOptions options;
  options.backend = SurrogateBackend::kSubsetGp;
  options.subset_size = 64;
  options.gp.optimize_hyperparams = false;
  ScalableSurrogate surrogate(2, options);
  ASSERT_TRUE(surrogate.Fit(history).ok());
  EXPECT_EQ(surrogate.num_model_observations(), 64u);
  ASSERT_EQ(surrogate.subset_indices().size(), 64u);
  EXPECT_TRUE(std::is_sorted(surrogate.subset_indices().begin(),
                             surrogate.subset_indices().end()));

  // The subset model still ranks the minimum below a far corner.
  const GpPrediction good = surrogate.PredictMetric(MetricKind::kRes,
                                                    {0.3, 0.7});
  const GpPrediction bad = surrogate.PredictMetric(MetricKind::kRes,
                                                   {0.95, 0.05});
  EXPECT_LT(good.mean, bad.mean);
}

TEST(ScalableSurrogateTest, ForestBackendPredictsAllMetrics) {
  const std::vector<Observation> history = BowlHistory(300, 11);
  ScalableSurrogateOptions options;
  options.backend = SurrogateBackend::kQuantileForest;
  ScalableSurrogate surrogate(2, options);
  ASSERT_TRUE(surrogate.Fit(history).ok());
  EXPECT_EQ(surrogate.gp(), nullptr);
  const GpPrediction res = surrogate.PredictMetric(MetricKind::kRes,
                                                   {0.3, 0.7});
  const GpPrediction tps = surrogate.PredictMetric(MetricKind::kTps,
                                                   {0.3, 0.7});
  EXPECT_NEAR(res.mean, 0.0, 0.1);
  EXPECT_NEAR(tps.mean, 100.0, 5.0);
  EXPECT_GE(res.variance, 0.0);
}

TEST(ScalableSurrogateTest, BatchMatchesScalarPath) {
  const std::vector<Observation> history = BowlHistory(200, 12);
  for (SurrogateBackend backend :
       {SurrogateBackend::kSubsetGp, SurrogateBackend::kQuantileForest}) {
    ScalableSurrogateOptions options;
    options.backend = backend;
    options.subset_size = 50;
    options.gp.optimize_hyperparams = false;
    ScalableSurrogate surrogate(2, options);
    ASSERT_TRUE(surrogate.Fit(history).ok());

    Matrix queries(9, 2);
    Rng rng(13);
    for (size_t r = 0; r < 9; ++r) {
      queries(r, 0) = rng.Uniform();
      queries(r, 1) = rng.Uniform();
    }
    const std::vector<GpPrediction> batch =
        surrogate.PredictMetricBatch(MetricKind::kRes, queries);
    ASSERT_EQ(batch.size(), 9u);
    for (size_t r = 0; r < 9; ++r) {
      Vector theta = {queries(r, 0), queries(r, 1)};
      const GpPrediction one = surrogate.PredictMetric(MetricKind::kRes, theta);
      EXPECT_NEAR(batch[r].mean, one.mean, 1e-9)
          << SurrogateBackendName(backend) << " row " << r;
      EXPECT_NEAR(batch[r].variance, one.variance, 1e-9);
    }
  }
}

TEST(ScalableSurrogateTest, CeiRunsThroughApproxBackends) {
  // The acquisition layer only sees the Surrogate interface; CEI must
  // produce finite, non-negative scores from every backend.
  const std::vector<Observation> history = BowlHistory(150, 14);
  AcquisitionContext ctx;
  ctx.best_feasible_res = 0.2;
  ctx.has_feasible = true;
  ctx.lambda_tps = 90.0;
  ctx.lambda_lat = 2.0;

  Matrix candidates(16, 2);
  Rng rng(15);
  for (size_t r = 0; r < 16; ++r) {
    candidates(r, 0) = rng.Uniform();
    candidates(r, 1) = rng.Uniform();
  }
  for (SurrogateBackend backend :
       {SurrogateBackend::kSubsetGp, SurrogateBackend::kQuantileForest}) {
    ScalableSurrogateOptions options;
    options.backend = backend;
    options.subset_size = 40;
    options.gp.optimize_hyperparams = false;
    ScalableSurrogate surrogate(2, options);
    ASSERT_TRUE(surrogate.Fit(history).ok());
    const std::vector<double> scores =
        ConstrainedExpectedImprovementBatch(surrogate, {candidates}, ctx)
            .front();
    ASSERT_EQ(scores.size(), 16u);
    for (double s : scores) {
      EXPECT_TRUE(std::isfinite(s));
      EXPECT_GE(s, 0.0);
    }
  }
}

TEST(ScalableSurrogateTest, BackendNamesAreStable) {
  EXPECT_STREQ(SurrogateBackendName(SurrogateBackend::kExactGp), "exact_gp");
  EXPECT_STREQ(SurrogateBackendName(SurrogateBackend::kSubsetGp), "subset_gp");
  EXPECT_STREQ(SurrogateBackendName(SurrogateBackend::kQuantileForest),
               "quantile_forest");
}

}  // namespace
}  // namespace restune
