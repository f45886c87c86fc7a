#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "bo/lhs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gp/gp_model.h"
#include "gp/kernel.h"
#include "gp/multi_output_gp.h"
#include "linalg/simd/simd.h"
#include "obs/metrics.h"

namespace restune {
namespace {

TEST(KernelTest, Matern52SelfCovarianceIsAmplitude) {
  Matern52Kernel k(3, 0.5, 2.0);
  const Vector x = {0.1, 0.5, 0.9};
  EXPECT_NEAR(k.Eval(x, x), 2.0, 1e-12);
}

TEST(KernelTest, CovarianceDecaysWithDistance) {
  Matern52Kernel k(1);
  const double near = k.Eval({0.0}, {0.1});
  const double far = k.Eval({0.0}, {0.9});
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);
}

TEST(KernelTest, SymmetricInArguments) {
  SquaredExponentialKernel k(2, 0.3);
  const Vector a = {0.2, 0.7}, b = {0.9, 0.1};
  EXPECT_DOUBLE_EQ(k.Eval(a, b), k.Eval(b, a));
}

TEST(KernelTest, LogParamsRoundTrip) {
  Matern52Kernel k(2, 0.5, 1.0);
  Vector p = k.GetLogParams();
  ASSERT_EQ(p.size(), 3u);
  p[0] = std::log(4.0);
  p[1] = std::log(0.25);
  k.SetLogParams(p);
  const Vector q = k.GetLogParams();
  EXPECT_NEAR(q[0], std::log(4.0), 1e-12);
  EXPECT_NEAR(q[1], std::log(0.25), 1e-12);
  EXPECT_NEAR(k.Eval({0.0, 0.0}, {0.0, 0.0}), 4.0, 1e-12);
}

TEST(KernelTest, GramMatrixSymmetricPsdDiagonal) {
  Matern52Kernel k(2);
  Rng rng(1);
  Matrix x(5, 2);
  for (size_t r = 0; r < 5; ++r) {
    x(r, 0) = rng.Uniform();
    x(r, 1) = rng.Uniform();
  }
  const Matrix gram = k.GramMatrix(x);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(gram(i, i), 1.0, 1e-12);
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
      EXPECT_LE(gram(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(KernelTest, ArdLengthscalesWeightDimensions) {
  Matern52Kernel k(2);
  Vector p = k.GetLogParams();
  p[1] = std::log(0.05);  // dim 0 very sensitive
  p[2] = std::log(5.0);   // dim 1 nearly ignored
  k.SetLogParams(p);
  const double move_dim0 = k.Eval({0.0, 0.0}, {0.3, 0.0});
  const double move_dim1 = k.Eval({0.0, 0.0}, {0.0, 0.3});
  EXPECT_LT(move_dim0, move_dim1);
}

class GpModelTest : public ::testing::Test {
 protected:
  // Noise-free samples of a smooth function on [0,1]^2.
  static double Target(const Vector& x) {
    return std::sin(3.0 * x[0]) + 0.5 * std::cos(5.0 * x[1]) + x[0] * x[1];
  }

  GpModel FitModel(size_t n, bool optimize = true) {
    GpOptions options;
    options.optimize_hyperparams = optimize;
    options.noise_variance = 1e-6;
    GpModel gp(2, options);
    Rng rng(17);
    const auto points = LatinHypercubeSample(n, 2, &rng);
    Matrix x(n, 2);
    Vector y(n);
    for (size_t i = 0; i < n; ++i) {
      x(i, 0) = points[i][0];
      x(i, 1) = points[i][1];
      y[i] = Target(points[i]);
    }
    EXPECT_TRUE(gp.Fit(x, y).ok());
    return gp;
  }
};

TEST_F(GpModelTest, InterpolatesTrainingPoints) {
  GpModel gp = FitModel(20);
  for (size_t i = 0; i < gp.num_observations(); ++i) {
    const Vector xi = gp.train_x().Row(i);
    EXPECT_NEAR(gp.Predict(xi).mean, Target(xi), 0.05);
  }
}

TEST_F(GpModelTest, GeneralizesToHeldOutPoints) {
  GpModel gp = FitModel(40);
  Rng rng(99);
  double max_err = 0.0;
  for (int i = 0; i < 30; ++i) {
    const Vector x = {rng.Uniform(), rng.Uniform()};
    max_err = std::max(max_err, std::fabs(gp.Predict(x).mean - Target(x)));
  }
  EXPECT_LT(max_err, 0.3);
}

TEST_F(GpModelTest, VarianceShrinksNearData) {
  GpModel gp = FitModel(25);
  const Vector at_data = gp.train_x().Row(0);
  // A corner far from the LHS interior is less certain than a data point.
  const double var_data = gp.Predict(at_data).variance;
  double var_far = 0.0;
  for (const Vector& corner :
       {Vector{0.0, 0.0}, Vector{1.0, 1.0}, Vector{0.0, 1.0}}) {
    var_far = std::max(var_far, gp.Predict(corner).variance);
  }
  EXPECT_LT(var_data, var_far);
}

TEST_F(GpModelTest, PredictMeanMatchesPredict) {
  GpModel gp = FitModel(15);
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const Vector x = {rng.Uniform(), rng.Uniform()};
    EXPECT_NEAR(gp.PredictMean(x), gp.Predict(x).mean, 1e-9);
  }
}

TEST_F(GpModelTest, UpdateAppendsObservation) {
  GpModel gp = FitModel(10);
  const size_t before = gp.num_observations();
  ASSERT_TRUE(gp.Update({0.5, 0.5}, Target({0.5, 0.5})).ok());
  EXPECT_EQ(gp.num_observations(), before + 1);
  EXPECT_NEAR(gp.Predict({0.5, 0.5}).mean, Target({0.5, 0.5}), 0.05);
}

TEST_F(GpModelTest, HyperparamOptimizationImprovesLikelihood) {
  GpModel fixed = FitModel(30, /*optimize=*/false);
  GpModel tuned = FitModel(30, /*optimize=*/true);
  EXPECT_GE(tuned.LogMarginalLikelihood(),
            fixed.LogMarginalLikelihood() - 1e-6);
}

TEST_F(GpModelTest, LeaveOneOutMatchesManualRefit) {
  // Fit on n points without hyper-parameter optimization; LOO prediction i
  // must equal fitting on the other n-1 points with the same kernel.
  const size_t n = 12;
  GpOptions options;
  options.optimize_hyperparams = false;
  options.noise_variance = 1e-4;
  options.normalize_y = false;
  GpModel gp(2, options);
  Rng rng(3);
  const auto points = LatinHypercubeSample(n, 2, &rng);
  Matrix x(n, 2);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = points[i][0];
    x(i, 1) = points[i][1];
    y[i] = Target(points[i]);
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());
  const auto loo = gp.LeaveOneOutPredictions();
  ASSERT_EQ(loo.size(), n);

  // Manual refit leaving out index 4.
  const size_t held = 4;
  Matrix x2(n - 1, 2);
  Vector y2(n - 1);
  size_t r = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == held) continue;
    x2(r, 0) = x(i, 0);
    x2(r, 1) = x(i, 1);
    y2[r] = y[i];
    ++r;
  }
  GpModel gp2(2, options);
  ASSERT_TRUE(gp2.Fit(x2, y2).ok());
  const GpPrediction manual = gp2.Predict(x.Row(held));
  EXPECT_NEAR(loo[held].mean, manual.mean, 1e-6);
  EXPECT_NEAR(loo[held].variance, manual.variance, 1e-6);
}

TEST_F(GpModelTest, PredictBatchMatchesPerPointPredict) {
  GpModel gp = FitModel(25);
  Rng rng(31);
  const size_t m = 40;
  Matrix queries(m, 2);
  for (size_t i = 0; i < m; ++i) {
    queries(i, 0) = rng.Uniform();
    queries(i, 1) = rng.Uniform();
  }
  const auto batch = gp.PredictBatch(queries);
  ASSERT_EQ(batch.size(), m);
  for (size_t i = 0; i < m; ++i) {
    const GpPrediction scalar = gp.Predict(queries.Row(i));
    EXPECT_NEAR(batch[i].mean, scalar.mean, 1e-10) << "query " << i;
    EXPECT_NEAR(batch[i].variance, scalar.variance, 1e-10) << "query " << i;
  }
}

TEST_F(GpModelTest, PredictMeanBatchMatchesScalarMeans) {
  GpModel gp = FitModel(15);
  Rng rng(13);
  const size_t m = 25;
  Matrix queries(m, 2);
  for (size_t i = 0; i < m; ++i) {
    queries(i, 0) = rng.Uniform();
    queries(i, 1) = rng.Uniform();
  }
  const Vector means = gp.PredictMeanBatch(queries);
  ASSERT_EQ(means.size(), m);
  for (size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(means[i], gp.PredictMean(queries.Row(i)), 1e-10);
  }
}

TEST(GpModelBatchMeanTest, KeepsCrossCovariancePlusAxpyBitsAtEveryPoolSize) {
  // PredictMeanBatch's fused pass against the mean path it replaced: the
  // K* block from CrossCovarianceMatrix, one Axpy per training row, then
  // the target affine. Unnormalized targets make alpha recomputable from
  // the public factor. Called at top level, so the 4-thread pool splits
  // the 200 queries into stripes that do not start on a lane boundary.
  const size_t n = 80, d = 14, m = 200;
  Rng rng(41);
  Matrix x(n, d), queries(m, d);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t t = 0; t < d; ++t) x(i, t) = rng.Uniform();
    y[i] = rng.Gaussian();
  }
  for (size_t c = 0; c < m; ++c) {
    for (size_t t = 0; t < d; ++t) queries(c, t) = rng.Uniform();
  }
  GpOptions options;
  options.normalize_y = false;
  options.hyperopt_max_iters = 10;
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  ThreadPool serial(1);
  ThreadPool wide(4);
  for (simd::Tier tier : tiers) {
    ASSERT_EQ(simd::ForceTierForTest(tier), tier);
    for (bool matern : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << simd::TierName(tier) << (matern ? " matern52" : " se"));
      std::unique_ptr<Kernel> kernel;
      if (matern) {
        kernel = std::make_unique<Matern52Kernel>(d);
      } else {
        kernel = std::make_unique<SquaredExponentialKernel>(d);
      }
      GpModel gp(std::move(kernel), options);
      ASSERT_TRUE(gp.Fit(x, y).ok());
      const Vector alpha = gp.factor().Solve(y);
      const Matrix k_star = gp.kernel().CrossCovarianceMatrix(x, queries);
      Vector want(m, 0.0);
      for (size_t i = 0; i < n; ++i) {
        simd::Axpy(want.data(), alpha[i], k_star.RowPtr(i), m);
      }
      for (double& v : want) v = v * 1.0 + 0.0;
      for (ThreadPool* pool : {&serial, &wide}) {
        const Vector got = gp.PredictMeanBatch(queries, pool);
        ASSERT_EQ(got.size(), m);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(double)), 0)
            << "at " << pool->num_threads() << " threads";
      }
    }
  }
  simd::ResetTierForTest();
}

/// The coordinate stencil of the optimizer's refinement around `centre`
/// at `step`: rows 2k and 2k+1 move column k up and down, clamped to
/// [0, 1]. With `box`, every row is then clamped into [0.3, 0.7], as a
/// trust-region projection does.
Matrix CoordinateStencil(const Vector& centre, double step, bool box) {
  const size_t d = centre.size();
  Matrix stencil(2 * d, d);
  for (size_t k = 0; k < d; ++k) {
    for (size_t t = 0; t < d; ++t) {
      stencil(2 * k, t) = centre[t];
      stencil(2 * k + 1, t) = centre[t];
    }
    stencil(2 * k, k) = std::clamp(centre[k] + step, 0.0, 1.0);
    stencil(2 * k + 1, k) = std::clamp(centre[k] - step, 0.0, 1.0);
  }
  if (box) {
    for (size_t r = 0; r < 2 * d; ++r) {
      for (size_t t = 0; t < d; ++t) {
        stencil(r, t) = std::clamp(stencil(r, t), 0.3, 0.7);
      }
    }
  }
  return stencil;
}

int64_t StencilBlocks() {
  return obs::MetricsRegistry::Global()
      ->GetCounter("restune_gp_stencil_blocks_total")
      ->Value();
}

/// A fitted GP over `x` with unnormalized targets (so alpha can be
/// recomputed from the public factor) and ARD lengthscales drawn from
/// [ls_lo, ls_hi].
GpModel StencilTestModel(bool matern, const Matrix& x, const Vector& y,
                         double ls_lo, double ls_hi, Rng* rng) {
  const size_t d = x.cols();
  std::unique_ptr<Kernel> kernel;
  if (matern) {
    kernel = std::make_unique<Matern52Kernel>(d);
  } else {
    kernel = std::make_unique<SquaredExponentialKernel>(d);
  }
  Vector log_params(d + 1);
  log_params[0] = rng->Uniform(-1.0, 1.0);
  for (size_t t = 0; t < d; ++t) {
    log_params[t + 1] = rng->Uniform(std::log(ls_lo), std::log(ls_hi));
  }
  kernel->SetLogParams(log_params);
  GpOptions options;
  options.normalize_y = false;
  options.optimize_hyperparams = false;
  GpModel gp(std::move(kernel), options);
  EXPECT_TRUE(gp.Fit(x, y).ok());
  return gp;
}

/// Checks PredictMeanBatch and PredictBatch of `queries` against the
/// general path built from public parts: CrossCovarianceMatrix's K*, one
/// Axpy per training row for the mean, the blocked solve for the variance,
/// and the models' unit target affine. Returns how many stencil blocks the
/// two calls recognised.
int64_t ExpectGeneralPathBits(const GpModel& gp, const Vector& y,
                              const Matrix& queries, ThreadPool* pool) {
  const Matrix& x = gp.train_x();
  const size_t n = x.rows(), m = queries.rows();
  const Vector alpha = gp.factor().Solve(y);
  const Matrix k_star = gp.kernel().CrossCovarianceMatrix(x, queries);
  const Matrix v = gp.factor().SolveLowerMatrix(k_star);
  Vector mean(m, 0.0), v_sq(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    simd::Axpy(mean.data(), alpha[i], k_star.RowPtr(i), m);
    simd::SquareAccum(v_sq.data(), v.RowPtr(i), m);
  }
  const int64_t before = StencilBlocks();
  const Vector got_mean = gp.PredictMeanBatch(queries, pool);
  const std::vector<GpPrediction> got = gp.PredictBatch(queries, pool);
  const int64_t stencil_blocks = StencilBlocks() - before;
  EXPECT_EQ(got_mean.size(), m);
  EXPECT_EQ(got.size(), m);
  for (size_t c = 0; c < m && c < got_mean.size() && c < got.size(); ++c) {
    const double want_mean = mean[c] * 1.0 + 0.0;
    const double prior = gp.kernel().Eval(queries.RowPtr(c), queries.RowPtr(c));
    double var = prior + gp.options().noise_variance - v_sq[c];
    var = std::max(var, 1e-12) * 1.0 * 1.0;
    EXPECT_EQ(std::memcmp(&got_mean[c], &want_mean, sizeof(double)), 0)
        << "mean-only query " << c << ": " << got_mean[c] << " vs "
        << want_mean;
    EXPECT_EQ(std::memcmp(&got[c].mean, &want_mean, sizeof(double)), 0)
        << "query " << c << ": " << got[c].mean << " vs " << want_mean;
    EXPECT_EQ(std::memcmp(&got[c].variance, &var, sizeof(double)), 0)
        << "variance of query " << c << ": " << got[c].variance << " vs "
        << var;
  }
  return stencil_blocks;
}

TEST(GpModelStencilTest, StencilBlocksKeepTheGeneralPathBits) {
  // Both kernels and tiers, every d mod 4 tail, training sets that leave
  // every group tail of four rows, ordinary and flushing lengthscales, and
  // three stencil layouts: plain; clamped rows equal to a centre that sits
  // on a training row; trust-region-projected. Each at pools of one and
  // four threads.
  const size_t kRows[] = {1, 2, 3, 5, 30, 80};
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  ThreadPool serial(1), wide(4);
  Rng rng(43);
  for (simd::Tier tier : tiers) {
    ASSERT_EQ(simd::ForceTierForTest(tier), tier);
    for (size_t d = 2; d <= 17; ++d) {
      for (bool matern : {true, false}) {
        for (bool flush : {false, true}) {
          for (size_t n : kRows) {
            Matrix x(n, d);
            Vector y(n);
            for (size_t i = 0; i < n; ++i) {
              for (size_t t = 0; t < d; ++t) x(i, t) = rng.Uniform();
              y[i] = rng.Gaussian();
            }
            Vector centre(d);
            for (double& v : centre) v = rng.Uniform(0.25, 0.75);
            const Matrix plain = CoordinateStencil(centre, 0.1, false);
            const Matrix projected = CoordinateStencil(centre, 0.2, true);
            for (size_t t = 0; t < d; t += 2) {
              centre[t] = static_cast<double>((t / 2) % 2);
            }
            for (size_t t = 0; t < d; ++t) x(n - 1, t) = centre[t];
            const Matrix clamped = CoordinateStencil(centre, 0.15, false);
            const GpModel gp =
                flush ? StencilTestModel(matern, x, y, 1e-4, 2e-3, &rng)
                      : StencilTestModel(matern, x, y, 0.05, 2.0, &rng);
            ASSERT_TRUE(gp.fitted());
            const Matrix* layouts[] = {&plain, &clamped, &projected};
            for (size_t layout = 0; layout < 3; ++layout) {
              for (ThreadPool* pool : {&serial, &wide}) {
                SCOPED_TRACE(::testing::Message()
                             << simd::TierName(tier) << " "
                             << gp.kernel().name() << " d=" << d
                             << " n=" << n << (flush ? " flushing" : "")
                             << " layout " << layout << " at "
                             << pool->num_threads() << " threads");
                // PredictMeanBatch leaves stencils of at most eight rows
                // to the fused pass.
                EXPECT_EQ(ExpectGeneralPathBits(gp, y, *layouts[layout], pool),
                          d <= 4 ? 1 : 2);
                if (::testing::Test::HasFailure()) {
                  simd::ResetTierForTest();
                  return;
                }
              }
            }
          }
        }
      }
    }
  }
  simd::ResetTierForTest();
}

TEST(GpModelStencilTest, NearStencilsTakeTheGeneralPath) {
  // Blocks that are one step from the refinement's layout must not be
  // recognised, and keep the general path's bits: a row with two changed
  // coordinates, one row short, two rows over, one column (where there is
  // no centre to share), and the +step rows of every column before the
  // -step rows, which splits each column's pair of rows.
  const size_t d = 14, n = 30;
  Rng rng(47);
  Matrix x(n, d), x1(n, 1);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t t = 0; t < d; ++t) x(i, t) = rng.Uniform();
    x1(i, 0) = rng.Uniform();
    y[i] = rng.Gaussian();
  }
  Vector centre(d);
  for (double& v : centre) v = rng.Uniform(0.25, 0.75);
  const Matrix stencil = CoordinateStencil(centre, 0.1, false);
  Matrix two_changed = stencil;
  two_changed(9, 7) += 1e-3;
  Matrix short_block(2 * d - 1, d), long_block(2 * d + 2, d);
  for (size_t r = 0; r < long_block.rows(); ++r) {
    for (size_t t = 0; t < d; ++t) {
      if (r < short_block.rows()) short_block(r, t) = stencil(r, t);
      long_block(r, t) = r < 2 * d ? stencil(r, t) : centre[t];
    }
  }
  Matrix split_pairs(2 * d, d);
  for (size_t k = 0; k < d; ++k) {
    for (size_t t = 0; t < d; ++t) {
      split_pairs(k, t) = stencil(2 * k, t);
      split_pairs(d + k, t) = stencil(2 * k + 1, t);
    }
  }
  const Matrix one_column = CoordinateStencil({0.4}, 0.1, false);
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  ThreadPool serial(1), wide(4);
  for (simd::Tier tier : tiers) {
    ASSERT_EQ(simd::ForceTierForTest(tier), tier);
    for (bool matern : {true, false}) {
      const GpModel gp = StencilTestModel(matern, x, y, 0.05, 2.0, &rng);
      const GpModel gp1 = StencilTestModel(matern, x1, y, 0.05, 2.0, &rng);
      for (ThreadPool* pool : {&serial, &wide}) {
        SCOPED_TRACE(::testing::Message()
                     << simd::TierName(tier) << " " << gp.kernel().name()
                     << " at " << pool->num_threads() << " threads");
        EXPECT_EQ(ExpectGeneralPathBits(gp, y, stencil, pool), 2);
        EXPECT_EQ(ExpectGeneralPathBits(gp, y, two_changed, pool), 0);
        EXPECT_EQ(ExpectGeneralPathBits(gp, y, short_block, pool), 0);
        EXPECT_EQ(ExpectGeneralPathBits(gp, y, long_block, pool), 0);
        EXPECT_EQ(ExpectGeneralPathBits(gp, y, split_pairs, pool), 0);
        EXPECT_EQ(ExpectGeneralPathBits(gp1, y, one_column, pool), 0);
      }
    }
  }
  simd::ResetTierForTest();
}

TEST_F(GpModelTest, IncrementalUpdateMatchesFullRefit) {
  // With fixed hyper-parameters every Update takes the O(n^2) rank-one
  // Cholesky path; after 30 appends the model must agree with a from-
  // scratch fit on the same data.
  GpOptions options;
  options.optimize_hyperparams = false;
  options.noise_variance = 1e-4;
  GpModel incremental(2, options);
  Rng rng(71);
  const size_t initial = 5, appends = 30;
  Matrix x0(initial, 2);
  Vector y0(initial);
  for (size_t i = 0; i < initial; ++i) {
    x0(i, 0) = rng.Uniform();
    x0(i, 1) = rng.Uniform();
    y0[i] = Target(x0.Row(i));
  }
  ASSERT_TRUE(incremental.Fit(x0, y0).ok());
  for (size_t i = 0; i < appends; ++i) {
    const Vector xi = {rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(incremental.Update(xi, Target(xi)).ok()) << "append " << i;
  }
  ASSERT_EQ(incremental.num_observations(), initial + appends);

  GpModel scratch(2, options);
  ASSERT_TRUE(scratch.Fit(incremental.train_x(), incremental.train_y()).ok());

  Rng query_rng(5);
  for (int i = 0; i < 20; ++i) {
    const Vector q = {query_rng.Uniform(), query_rng.Uniform()};
    const GpPrediction a = incremental.Predict(q);
    const GpPrediction b = scratch.Predict(q);
    EXPECT_NEAR(a.mean, b.mean, 1e-8);
    EXPECT_NEAR(a.variance, b.variance, 1e-8);
  }
  EXPECT_NEAR(incremental.LogMarginalLikelihood(),
              scratch.LogMarginalLikelihood(), 1e-7);
}

TEST_F(GpModelTest, FixedHyperparamsStillRefactorizePeriodically) {
  // With optimize_hyperparams off the factor must not be extended forever:
  // every refit_period updates a full refactorization clears accumulated
  // O(n^2)-update rounding (and any jitter baked into an old factor). A
  // long run of updates therefore stays equivalent to a from-scratch fit
  // even with an aggressive refit period.
  GpOptions options;
  options.optimize_hyperparams = false;
  options.noise_variance = 1e-4;
  options.refit_period = 3;
  GpModel incremental(2, options);
  Rng rng(29);
  Matrix x0(4, 2);
  Vector y0(4);
  for (size_t i = 0; i < 4; ++i) {
    x0(i, 0) = rng.Uniform();
    x0(i, 1) = rng.Uniform();
    y0[i] = Target(x0.Row(i));
  }
  ASSERT_TRUE(incremental.Fit(x0, y0).ok());
  for (size_t i = 0; i < 40; ++i) {
    const Vector xi = {rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(incremental.Update(xi, Target(xi)).ok()) << "append " << i;
  }

  GpModel scratch(2, options);
  ASSERT_TRUE(scratch.Fit(incremental.train_x(), incremental.train_y()).ok());
  Rng query_rng(3);
  for (int i = 0; i < 10; ++i) {
    const Vector q = {query_rng.Uniform(), query_rng.Uniform()};
    const GpPrediction a = incremental.Predict(q);
    const GpPrediction b = scratch.Predict(q);
    EXPECT_NEAR(a.mean, b.mean, 1e-8);
    EXPECT_NEAR(a.variance, b.variance, 1e-8);
  }
}

TEST_F(GpModelTest, CopyIsIndependent) {
  GpModel gp = FitModel(10);
  GpModel copy = gp;
  ASSERT_TRUE(copy.Update({0.42, 0.42}, 1.0).ok());
  EXPECT_EQ(copy.num_observations(), gp.num_observations() + 1);
}

TEST(GpModelErrors, RejectsMismatchedSizes) {
  GpModel gp(2);
  Matrix x(3, 2);
  EXPECT_FALSE(gp.Fit(x, {1.0, 2.0}).ok());
  EXPECT_FALSE(gp.Fit(Matrix(0, 2), {}).ok());
  EXPECT_FALSE(gp.Fit(Matrix(3, 5, 0.1), {1, 2, 3}).ok());
}

TEST(GpModelNormalization, HandlesConstantTargets) {
  GpModel gp(1);
  Matrix x(3, 1);
  x(0, 0) = 0.1;
  x(1, 0) = 0.5;
  x(2, 0) = 0.9;
  ASSERT_TRUE(gp.Fit(x, {5.0, 5.0, 5.0}).ok());
  EXPECT_NEAR(gp.Predict({0.3}).mean, 5.0, 1e-6);
}

TEST(GpModelNormalization, LargeScaleTargets) {
  // Targets in the tens of thousands (like TPS) must round-trip through
  // internal standardization.
  GpModel gp(1);
  Matrix x(4, 1);
  Vector y = {21000.0, 22000.0, 20000.0, 23000.0};
  for (size_t i = 0; i < 4; ++i) x(i, 0) = 0.2 * static_cast<double>(i + 1);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  const double pred = gp.Predict({0.4}).mean;
  EXPECT_GT(pred, 15000.0);
  EXPECT_LT(pred, 28000.0);
}

TEST(MultiOutputGpTest, FitsThreeMetricsJointly) {
  std::vector<Observation> obs;
  Rng rng(10);
  for (int i = 0; i < 25; ++i) {
    Observation o;
    o.theta = {rng.Uniform(), rng.Uniform()};
    o.res = 50.0 + 30.0 * o.theta[0];
    o.tps = 10000.0 - 2000.0 * o.theta[1];
    o.lat = 5.0 + 3.0 * o.theta[0] * o.theta[1];
    obs.push_back(o);
  }
  MultiOutputGp gp(2);
  ASSERT_TRUE(gp.Fit(obs).ok());
  EXPECT_TRUE(gp.fitted());
  EXPECT_EQ(gp.num_observations(), 25u);

  const Vector q = {0.5, 0.5};
  EXPECT_NEAR(gp.Predict(MetricKind::kRes, q).mean, 65.0, 3.0);
  EXPECT_NEAR(gp.Predict(MetricKind::kTps, q).mean, 9000.0, 300.0);
  EXPECT_NEAR(gp.Predict(MetricKind::kLat, q).mean, 5.75, 0.5);
}

TEST(MultiOutputGpTest, UpdateGrowsAllModels) {
  MultiOutputGp gp(1);
  Observation o;
  o.theta = {0.2};
  o.res = 1.0;
  o.tps = 2.0;
  o.lat = 3.0;
  ASSERT_TRUE(gp.Update(o).ok());
  o.theta = {0.8};
  ASSERT_TRUE(gp.Update(o).ok());
  for (MetricKind kind : kAllMetricKinds) {
    EXPECT_EQ(gp.model(kind).num_observations(), 2u);
  }
}

TEST(MultiOutputGpTest, RejectsEmptyAndRaggedFits) {
  MultiOutputGp gp(2);
  EXPECT_FALSE(gp.Fit({}).ok());
  // A wider θ after the first row (a corrupt repository task) must be
  // refused, not copied past the end of the design matrix row.
  Observation narrow;
  narrow.theta = {0.1, 0.2};
  narrow.res = 1.0;
  narrow.tps = 2.0;
  narrow.lat = 3.0;
  Observation wide = narrow;
  wide.theta = {0.3, 0.4, 0.5, 0.6};
  EXPECT_EQ(gp.Fit({narrow, wide}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gp.Fit({narrow}, {wide}).code(), StatusCode::kInvalidArgument);
}

TEST(ObservationTest, MetricAccessorRoundTrip) {
  Observation o;
  o.res = 1.5;
  o.tps = 2.5;
  o.lat = 3.5;
  EXPECT_DOUBLE_EQ(o.metric(MetricKind::kRes), 1.5);
  EXPECT_DOUBLE_EQ(o.metric(MetricKind::kTps), 2.5);
  EXPECT_DOUBLE_EQ(o.metric(MetricKind::kLat), 3.5);
  o.metric(MetricKind::kTps) = 9.0;
  EXPECT_DOUBLE_EQ(o.tps, 9.0);
}

TEST(SlaConstraintsTest, FeasibilityWithTolerance) {
  SlaConstraints sla{1000.0, 10.0};
  Observation ok;
  ok.tps = 1000.0;
  ok.lat = 10.0;
  EXPECT_TRUE(sla.IsFeasible(ok));
  Observation slightly_off;
  slightly_off.tps = 960.0;
  slightly_off.lat = 10.4;
  EXPECT_FALSE(sla.IsFeasible(slightly_off));
  EXPECT_TRUE(sla.IsFeasible(slightly_off, 0.05));
}

}  // namespace
}  // namespace restune
