#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "bo/lhs.h"
#include "bo/surrogate.h"
#include "common/fnv.h"
#include "common/thread_pool.h"
#include "linalg/simd/simd.h"
#include "meta/base_learner.h"
#include "meta/meta_learner.h"
#include "obs/metrics.h"

namespace restune {
namespace {

/// Fan-out (non-inline) pool loops so far; a pool-size invariance test
/// checks it rose during the wide call, so the parallel path really ran.
int64_t PoolLoops() {
  return obs::MetricsRegistry::Global()
      ->GetCounter("restune_pool_loops_total")
      ->Value();
}

TEST(LhsTest, OneSamplePerStratum) {
  Rng rng(2);
  const size_t n = 16;
  const auto samples = LatinHypercubeSample(n, 3, &rng);
  ASSERT_EQ(samples.size(), n);
  for (size_t d = 0; d < 3; ++d) {
    std::vector<bool> stratum_hit(n, false);
    for (const Vector& s : samples) {
      ASSERT_GE(s[d], 0.0);
      ASSERT_LT(s[d], 1.0);
      const size_t stratum = static_cast<size_t>(s[d] * n);
      EXPECT_FALSE(stratum_hit[stratum]) << "stratum hit twice in dim " << d;
      stratum_hit[stratum] = true;
    }
  }
}

TEST(LhsTest, UniformSampleInBounds) {
  Rng rng(2);
  for (const Vector& s : UniformSample(100, 4, &rng)) {
    ASSERT_EQ(s.size(), 4u);
    for (double v : s) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(ExpectedImprovementTest, ZeroWhenCertainAndWorse) {
  // Deterministic prediction worse than the incumbent: no improvement.
  EXPECT_DOUBLE_EQ(ExpectedImprovement({10.0, 0.0}, 5.0), 0.0);
}

TEST(ExpectedImprovementTest, ExactWhenCertainAndBetter) {
  EXPECT_DOUBLE_EQ(ExpectedImprovement({3.0, 0.0}, 5.0), 2.0);
}

TEST(ExpectedImprovementTest, UncertaintyAddsValue) {
  // Same mean as incumbent: EI = sigma * phi(0).
  const double ei = ExpectedImprovement({5.0, 4.0}, 5.0);
  EXPECT_NEAR(ei, 2.0 * 0.3989422804, 1e-6);
  // More variance, more EI.
  EXPECT_GT(ExpectedImprovement({5.0, 9.0}, 5.0), ei);
}

TEST(ExpectedImprovementTest, NonNegative) {
  for (double mean : {0.0, 5.0, 50.0}) {
    for (double var : {0.0, 0.1, 10.0}) {
      EXPECT_GE(ExpectedImprovement({mean, var}, 5.0), 0.0);
    }
  }
}

TEST(ProbabilityOfFeasibilityTest, CertainCases) {
  // tps well above threshold, lat well below: certainly feasible.
  EXPECT_NEAR(ProbabilityOfFeasibility({2000.0, 1.0}, {5.0, 0.01}, 1000.0,
                                       10.0),
              1.0, 1e-6);
  // tps below threshold with no variance: certainly infeasible.
  EXPECT_NEAR(ProbabilityOfFeasibility({500.0, 0.0}, {5.0, 0.0}, 1000.0,
                                       10.0),
              0.0, 1e-12);
}

TEST(ProbabilityOfFeasibilityTest, AtThresholdIsHalf) {
  const double p =
      ProbabilityOfFeasibility({1000.0, 100.0}, {1.0, 0.0}, 1000.0, 10.0);
  EXPECT_NEAR(p, 0.5, 1e-9);
}

TEST(ProbabilityOfFeasibilityTest, ProductOfIndependentConstraints) {
  const double p_both =
      ProbabilityOfFeasibility({1000.0, 100.0}, {10.0, 4.0}, 1000.0, 10.0);
  EXPECT_NEAR(p_both, 0.25, 1e-9);  // 0.5 * 0.5
}

/// Analytic surrogate for acquisition tests: res = θ₀ (minimize), tps falls
/// below threshold when θ₀ < 0.3 (so low θ₀ is infeasible).
class FakeSurrogate : public Surrogate {
 public:
  /// The closed-form posterior of `kind` at θ₀ = x.
  static GpPrediction Posterior(MetricKind kind, double x) {
    switch (kind) {
      case MetricKind::kRes:
        return {x, 0.01};
      case MetricKind::kTps:
        return {x * 1000.0, 1.0};
      case MetricKind::kLat:
        return {1.0, 0.01};
    }
    return {};
  }

  std::vector<GpPrediction> PredictMetricBatch(
      MetricKind kind, const Matrix& thetas,
      ThreadPool* /*pool*/ = nullptr) const override {
    std::vector<GpPrediction> out(thetas.rows());
    for (size_t r = 0; r < thetas.rows(); ++r) {
      out[r] = Posterior(kind, thetas(r, 0));
    }
    return out;
  }
};

/// One single-knob candidate block, one row per value.
Matrix Column(const std::vector<double>& values) {
  Matrix block(values.size(), 1);
  for (size_t r = 0; r < values.size(); ++r) block(r, 0) = values[r];
  return block;
}

TEST(ConstrainedEiTest, PrefersFeasibleOverInfeasibleMinimum) {
  FakeSurrogate surrogate;
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 0.8;
  ctx.lambda_tps = 300.0;  // θ₀ >= 0.3 feasible
  ctx.lambda_lat = 10.0;
  // θ₀ = 0.05 has the lowest res but almost surely violates the tps bound.
  const std::vector<double> cei =
      ConstrainedExpectedImprovementBatch(surrogate, {Column({0.05, 0.4})},
                                          ctx)
          .front();
  EXPECT_GT(cei[1], cei[0]);
}

TEST(ConstrainedEiTest, ChasesFeasibilityWhenNoIncumbent) {
  FakeSurrogate surrogate;
  AcquisitionContext ctx;
  ctx.has_feasible = false;
  ctx.lambda_tps = 300.0;
  ctx.lambda_lat = 10.0;
  // Without an incumbent CEI reduces to the probability of feasibility.
  const std::vector<double> cei =
      ConstrainedExpectedImprovementBatch(surrogate, {Column({0.1, 0.9})},
                                          ctx)
          .front();
  EXPECT_GT(cei[1], cei[0]);
  EXPECT_LE(cei[1], 1.0 + 1e-9);
}

TEST(UnconstrainedEiTest, IgnoresConstraints) {
  FakeSurrogate surrogate;
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 0.8;
  ctx.lambda_tps = 1e9;  // impossible constraint — must be ignored
  const std::vector<double> ei =
      UnconstrainedExpectedImprovementBatch(surrogate, {Column({0.05, 0.5})},
                                            ctx)
          .front();
  EXPECT_GT(ei[0], ei[1]);
}

TEST(PenalizedEiTest, PenaltyDiscouragesViolations) {
  FakeSurrogate surrogate;
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 0.8;
  ctx.lambda_tps = 300.0;
  ctx.lambda_lat = 10.0;
  const auto at_low_res = [&](double penalty) {
    return PenalizedExpectedImprovementBatch(surrogate, {Column({0.05})}, ctx,
                                             penalty)[0][0];
  };
  EXPECT_GE(at_low_res(0.0001), at_low_res(100.0));
}

TEST(BatchAcquisitionTest, BatchVariantsMatchPerRowFormulas) {
  FakeSurrogate surrogate;
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 0.8;
  ctx.lambda_tps = 300.0;
  ctx.lambda_lat = 10.0;
  const size_t m = 9;
  Matrix thetas(m, 1);
  for (size_t i = 0; i < m; ++i) thetas(i, 0) = 0.05 + 0.1 * i;

  const auto cei =
      ConstrainedExpectedImprovementBatch(surrogate, {thetas}, ctx).front();
  const auto ei =
      UnconstrainedExpectedImprovementBatch(surrogate, {thetas}, ctx).front();
  const auto pen =
      PenalizedExpectedImprovementBatch(surrogate, {thetas}, ctx, 0.5).front();
  ASSERT_EQ(cei.size(), m);
  ASSERT_EQ(ei.size(), m);
  ASSERT_EQ(pen.size(), m);
  for (size_t i = 0; i < m; ++i) {
    const double x = thetas(i, 0);
    const GpPrediction res = FakeSurrogate::Posterior(MetricKind::kRes, x);
    const GpPrediction tps = FakeSurrogate::Posterior(MetricKind::kTps, x);
    const GpPrediction lat = FakeSurrogate::Posterior(MetricKind::kLat, x);
    EXPECT_DOUBLE_EQ(cei[i], ProbabilityOfFeasibility(tps, lat, ctx.lambda_tps,
                                                      ctx.lambda_lat) *
                                 ExpectedImprovement(res,
                                                     ctx.best_feasible_res));
    EXPECT_DOUBLE_EQ(ei[i], ExpectedImprovement(res, ctx.best_feasible_res));
    const double violation = std::max(0.0, ctx.lambda_tps - tps.mean) +
                             std::max(0.0, lat.mean - ctx.lambda_lat);
    EXPECT_DOUBLE_EQ(pen[i],
                     ExpectedImprovement({res.mean + 0.5 * violation,
                                          res.variance},
                                         ctx.best_feasible_res));
  }
}

TEST(BatchAcquisitionTest, BatchCeiWithoutIncumbentIsProbabilityOfFeasibility) {
  FakeSurrogate surrogate;
  AcquisitionContext ctx;
  ctx.has_feasible = false;  // exercises the skipped-res-batch branch
  ctx.lambda_tps = 300.0;
  ctx.lambda_lat = 10.0;
  Matrix thetas(5, 1);
  for (size_t i = 0; i < 5; ++i) thetas(i, 0) = 0.1 + 0.2 * i;
  const auto batch =
      ConstrainedExpectedImprovementBatch(surrogate, {thetas}, ctx).front();
  ASSERT_EQ(batch.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const double x = thetas(i, 0);
    EXPECT_DOUBLE_EQ(
        batch[i],
        ProbabilityOfFeasibility(FakeSurrogate::Posterior(MetricKind::kTps, x),
                                 FakeSurrogate::Posterior(MetricKind::kLat, x),
                                 ctx.lambda_tps, ctx.lambda_lat));
  }
}

TEST(BatchAcquisitionTest, CeiEvaluationsCounterCountsScoredRows) {
  // perfbench's bo.cei_evals_per_suggest is built on this counter: one per
  // scored candidate row. 64 + 28 rows is past the pool's range grain, so
  // the call takes the pool path.
  FakeSurrogate surrogate;
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 0.8;
  ctx.lambda_tps = 300.0;
  ctx.lambda_lat = 10.0;
  std::vector<Matrix> blocks;
  for (size_t rows : {size_t{64}, size_t{28}}) {
    Matrix& block = blocks.emplace_back(rows, 1);
    for (size_t r = 0; r < rows; ++r) block(r, 0) = (r + 0.5) / rows;
  }
  obs::Counter* counter = obs::MetricsRegistry::Global()->GetCounter(
      "restune_acq_cei_evaluations_total");
  const int64_t before = counter->Value();
  const BlockValues values =
      ConstrainedExpectedImprovementBatch(surrogate, blocks, ctx);
  EXPECT_EQ(counter->Value() - before, 92);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].size(), 64u);
  EXPECT_EQ(values[1].size(), 28u);
}

TEST(BatchAcquisitionTest, CeiBatchIsPoolSizeInvariant) {
  // The pool handed to the batch CEI path drives the GP's blocked
  // inference; values must be bitwise identical whether the work runs
  // inline, on an explicit pool, or on the shared pool. The query count is
  // above the pool's range grain, so the 4-thread call really fans out.
  const size_t dim = 3, n = 40;
  Rng rng(11);
  std::vector<Observation> obs;
  for (const Vector& theta : LatinHypercubeSample(n, dim, &rng)) {
    Observation o;
    o.theta = theta;
    o.res = 50.0 + 20.0 * theta[0] + rng.Gaussian(0, 0.3);
    o.tps = 9000.0 - 1500.0 * theta[1] + rng.Gaussian(0, 40.0);
    o.lat = 5.0 + 2.0 * theta[2] + rng.Gaussian(0, 0.04);
    obs.push_back(std::move(o));
  }
  GpOptions options;
  options.optimize_hyperparams = false;
  MultiOutputGp gp(dim, options);
  ASSERT_TRUE(gp.Fit(obs).ok());
  GpSurrogate surrogate(&gp);
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 55.0;
  ctx.lambda_tps = 8000.0;
  ctx.lambda_lat = 7.0;
  const std::vector<Vector> queries = UniformSample(200, dim, &rng);
  Matrix thetas(queries.size(), dim);
  for (size_t r = 0; r < queries.size(); ++r) {
    for (size_t c = 0; c < dim; ++c) thetas(r, c) = queries[r][c];
  }
  ThreadPool serial(1), wide(4);
  const auto inline_vals =
      ConstrainedExpectedImprovementBatch(surrogate, {thetas}, ctx, &serial)
          .front();
  const int64_t loops_before = PoolLoops();
  const auto pooled_vals =
      ConstrainedExpectedImprovementBatch(surrogate, {thetas}, ctx, &wide)
          .front();
  EXPECT_GT(PoolLoops(), loops_before);
  const auto shared_vals =
      ConstrainedExpectedImprovementBatch(surrogate, {thetas}, ctx).front();
  ASSERT_EQ(inline_vals.size(), thetas.rows());
  for (size_t i = 0; i < inline_vals.size(); ++i) {
    EXPECT_EQ(inline_vals[i], pooled_vals[i]) << "row " << i;
    EXPECT_EQ(inline_vals[i], shared_vals[i]) << "row " << i;
  }
}

/// The block form of a closed-form test objective: scores every row of
/// every block with `value`, one row after another.
BatchAcquisitionFn RowByRow(const std::function<double(const Vector&)>& value) {
  return [value](const std::vector<Matrix>& blocks) {
    std::vector<std::vector<double>> out;
    for (const Matrix& thetas : blocks) {
      std::vector<double>& values = out.emplace_back(thetas.rows());
      for (size_t r = 0; r < thetas.rows(); ++r) {
        values[r] = value(thetas.Row(r));
      }
    }
    return out;
  };
}

TEST(AcqOptimizerTest, FindsGlobalRegionOfSimpleFunction) {
  Rng rng(4);
  const BatchAcquisitionFn acquisition = RowByRow([](const Vector& x) {
    // Peak at (0.7, 0.2).
    const double dx = x[0] - 0.7, dy = x[1] - 0.2;
    return std::exp(-20.0 * (dx * dx + dy * dy));
  });
  AcqOptimizerOptions options;
  options.num_candidates = 512;
  const Vector best = MaximizeAcquisitionBatch(acquisition, 2, &rng, options);
  EXPECT_NEAR(best[0], 0.7, 0.1);
  EXPECT_NEAR(best[1], 0.2, 0.1);
}

TEST(AcqOptimizerTest, StaysInUnitBox) {
  Rng rng(4);
  // Monotone function pushing toward the boundary.
  const BatchAcquisitionFn acquisition =
      RowByRow([](const Vector& x) { return x[0] - x[1]; });
  const Vector best = MaximizeAcquisitionBatch(acquisition, 2, &rng);
  EXPECT_GE(best[0], 0.0);
  EXPECT_LE(best[0], 1.0);
  EXPECT_GE(best[1], 0.0);
  EXPECT_LE(best[1], 1.0);
  EXPECT_GT(best[0], 0.8);  // refinement should push to the edge
  EXPECT_LT(best[1], 0.2);
}

TEST(AcqOptimizerTest, RefinementImprovesOverBestCandidate) {
  Rng rng_a(8), rng_b(8);
  const BatchAcquisitionFn acquisition = RowByRow([](const Vector& x) {
    const double d = x[0] - 0.515;
    return -d * d;
  });
  AcqOptimizerOptions coarse;
  coarse.num_candidates = 16;
  coarse.num_refine = 0;
  AcqOptimizerOptions refined = coarse;
  refined.num_refine = 3;
  refined.refine_passes = 4;
  const Vector without =
      MaximizeAcquisitionBatch(acquisition, 1, &rng_a, coarse);
  const Vector with = MaximizeAcquisitionBatch(acquisition, 1, &rng_b, refined);
  EXPECT_LE(std::fabs(with[0] - 0.515), std::fabs(without[0] - 0.515) + 1e-9);
}

TEST(AcqOptimizerTest, ChosenCandidateBitwiseIdenticalAcrossPoolSizes) {
  // The determinism contract: the same seed must pick the exact same
  // candidate regardless of how many threads score the sweep. Like the
  // batch acquisitions, the function scores its blocks on the pool.
  const auto acquisition_on = [](ThreadPool* pool) {
    return [pool](const std::vector<Matrix>& blocks) {
      std::vector<std::vector<double>> values(blocks.size());
      pool->ParallelFor(blocks.size(), [&](size_t b) {
        const Matrix& thetas = blocks[b];
        values[b].resize(thetas.rows());
        for (size_t r = 0; r < thetas.rows(); ++r) {
          const double dx = thetas(r, 0) - 0.31, dy = thetas(r, 1) - 0.77;
          values[b][r] = std::exp(-8.0 * (dx * dx + dy * dy)) +
                         0.1 * std::sin(40.0 * thetas(r, 0));
        }
      });
      return values;
    };
  };
  ThreadPool serial(1), parallel(4);
  AcqOptimizerOptions serial_opts;
  serial_opts.pool = &serial;
  AcqOptimizerOptions parallel_opts;
  parallel_opts.pool = &parallel;

  Rng rng_a(12345), rng_b(12345);
  const Vector a = MaximizeAcquisitionBatch(acquisition_on(&serial), 2,
                                            &rng_a, serial_opts);
  const int64_t loops_before = PoolLoops();
  const Vector b = MaximizeAcquisitionBatch(acquisition_on(&parallel), 2,
                                            &rng_b, parallel_opts);
  EXPECT_GT(PoolLoops(), loops_before);
  ASSERT_EQ(a.size(), b.size());
  for (size_t d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a[d], b[d]) << "dim " << d << " differs between pool sizes";
  }
}

TEST(AcqOptimizerTest, EveryRefinementBlockTakesTheGpStencilPath) {
  // The GP recognises the refinement's coordinate stencils by their row
  // order (BuildStencil) and fills their cross-covariance from shared
  // distance work. A change to that order would lose the gain without
  // changing a bit; here it fails. One default maximization over a GP
  // surrogate sends each of its num_refine x refine_passes stencil blocks
  // down the stencil path once per metric CEI predicts, and none of the
  // sweep's blocks.
  const size_t dim = 14, n = 40;
  Rng rng(17);
  std::vector<Observation> obs;
  for (const Vector& theta : LatinHypercubeSample(n, dim, &rng)) {
    Observation o;
    o.theta = theta;
    o.res = 50.0 + 20.0 * theta[0] + rng.Gaussian(0, 0.3);
    o.tps = 9000.0 - 1500.0 * theta[1] + rng.Gaussian(0, 40.0);
    o.lat = 5.0 + 2.0 * theta[2] + rng.Gaussian(0, 0.04);
    obs.push_back(std::move(o));
  }
  GpOptions gp_options;
  gp_options.optimize_hyperparams = false;
  MultiOutputGp gp(dim, gp_options);
  ASSERT_TRUE(gp.Fit(obs).ok());
  const GpSurrogate surrogate(&gp);
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 55.0;
  ctx.lambda_tps = 8000.0;
  ctx.lambda_lat = 7.0;
  const AcqOptimizerOptions options;
  obs::Counter* stencil_blocks = obs::MetricsRegistry::Global()->GetCounter(
      "restune_gp_stencil_blocks_total");
  const int64_t before = stencil_blocks->Value();
  const Vector best = MaximizeAcquisitionBatch(
      [&](const std::vector<Matrix>& blocks) {
        return ConstrainedExpectedImprovementBatch(surrogate, blocks, ctx);
      },
      dim, &rng, options);
  ASSERT_EQ(best.size(), dim);
  EXPECT_EQ(stencil_blocks->Value() - before,
            options.num_refine * options.refine_passes * 3);
}

TEST(AcqOptimizerTest, ZeroRefineReturnsSweepBest) {
  // With refinement disabled the result must still be the best-scoring
  // candidate of the sweep, not an arbitrary (e.g. the first) sample.
  const auto value = [](const Vector& x) {
    const double dx = x[0] - 0.3, dy = x[1] - 0.7;
    return -(dx * dx + dy * dy);
  };
  const BatchAcquisitionFn acquisition = RowByRow(value);
  AcqOptimizerOptions options;
  options.num_candidates = 64;
  options.num_refine = 0;

  // Replay the sweep with the same seed to find its argmax independently.
  Rng sweep_rng(4242);
  const auto samples = UniformSample(64, 2, &sweep_rng);
  size_t best_row = 0;
  for (size_t r = 1; r < samples.size(); ++r) {
    if (value(samples[r]) > value(samples[best_row])) best_row = r;
  }

  Rng rng(4242);
  const Vector chosen = MaximizeAcquisitionBatch(acquisition, 2, &rng,
                                                 options);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], samples[best_row][0]);
  EXPECT_EQ(chosen[1], samples[best_row][1]);
}

TEST(AcqOptimizerTest, DegenerateOptionsStillReturnAnInBoxPoint) {
  BatchAcquisitionFn acquisition = [](const std::vector<Matrix>& blocks) {
    std::vector<std::vector<double>> out;
    for (const Matrix& thetas : blocks) out.emplace_back(thetas.rows(), 0.0);
    return out;
  };
  AcqOptimizerOptions options;
  options.num_candidates = 0;  // clamped to one sample instead of UB
  options.num_refine = 0;
  Rng rng(9);
  const Vector best = MaximizeAcquisitionBatch(acquisition, 2, &rng, options);
  ASSERT_EQ(best.size(), 2u);
  for (double v : best) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

// ------------------------------------------------------------------ pins

constexpr size_t kPinDim = 14;

/// Raw observations of a 14-knob surface: res rises with the first knob
/// and falls with a knob interaction, tps falls with the first knob and
/// latency rises with the last.
std::vector<Observation> PinObservations(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Observation> out;
  for (const Vector& theta : LatinHypercubeSample(n, kPinDim, &rng)) {
    Observation o;
    o.theta = theta;
    o.res = 50.0 + 30.0 * theta[0] - 8.0 * theta[1] * theta[2] +
            rng.Gaussian(0, 0.5);
    o.tps = 10000.0 - 2000.0 * theta[0] + 600.0 * theta[3] +
            rng.Gaussian(0, 50.0);
    o.lat = 5.0 + 3.0 * theta[kPinDim - 1] + rng.Gaussian(0, 0.05);
    out.push_back(std::move(o));
  }
  return out;
}

/// A 14-knob ensemble of six 60-point base learners in its dynamic phase.
/// Sixty points are more than one 48-row solve block, so every member's
/// triangular solve takes its SIMD panel path.
std::unique_ptr<MetaLearner> PinMetaLearner() {
  std::vector<BaseLearner> bases;
  for (uint64_t b = 0; b < 6; ++b) {
    TuningTask task;
    task.name = "pin" + std::to_string(b);
    task.meta_feature = {1.0, 0.0};
    task.observations = PinObservations(60, 10 + b);
    bases.push_back(*BaseLearner::Train(task));
  }
  MetaLearnerOptions options;
  options.ranking_loss_samples = 7;
  options.target_gp.hyperopt_max_iters = 15;
  auto learner = std::make_unique<MetaLearner>(kPinDim, std::move(bases),
                                               Vector{1.0, 0.0}, options);
  for (const Observation& o : PinObservations(16, 77)) {
    EXPECT_TRUE(learner->AddObservation(o).ok());
  }
  EXPECT_FALSE(learner->in_static_phase());
  return learner;
}

/// The context `ResTuneAdvisor` builds: constraints re-scaled at the
/// default configuration, incumbent predicted at the best observation.
AcquisitionContext PinMetaContext(const MetaLearner& learner) {
  const Vector default_theta(kPinDim, 0.5);
  AcquisitionContext ctx;
  ctx.lambda_tps = learner.RescaledThreshold(MetricKind::kTps, default_theta);
  ctx.lambda_lat = learner.RescaledThreshold(MetricKind::kLat, default_theta);
  const std::vector<Observation>& history = learner.target_observations();
  const Observation* best = &history.front();
  for (const Observation& o : history) {
    if (o.res < best->res) best = &o;
  }
  ctx.has_feasible = true;
  ctx.best_feasible_res =
      learner.PredictMetric(MetricKind::kRes, best->theta).mean;
  return ctx;
}

/// The 2 * dim coordinate stencil around row `r` of `rows` at `step`, as the
/// optimizer's refinement builds it.
Matrix PinStencil(const Matrix& rows, size_t r, double step) {
  Matrix stencil(2 * kPinDim, kPinDim);
  for (size_t d = 0; d < kPinDim; ++d) {
    for (size_t c = 0; c < kPinDim; ++c) {
      stencil(2 * d, c) = rows(r, c);
      stencil(2 * d + 1, c) = rows(r, c);
    }
    stencil(2 * d, d) = std::clamp(rows(r, d) + step, 0.0, 1.0);
    stencil(2 * d + 1, d) = std::clamp(rows(r, d) - step, 0.0, 1.0);
  }
  return stencil;
}

/// FNV-1a of the bits of the CEI values of a 512-row sweep and of four
/// 28-row stencils around its first rows, scored the way the optimizer
/// scores them: the sweep in one call of `kAcquisitionBlockRows`-row
/// blocks, the stencils in one call of one block each.
uint64_t HashCeiValues(const Surrogate& surrogate,
                       const AcquisitionContext& ctx, ThreadPool* pool) {
  Rng rng(31);
  const std::vector<Vector> samples = UniformSample(512, kPinDim, &rng);
  Matrix sweep(samples.size(), kPinDim);
  for (size_t r = 0; r < samples.size(); ++r) {
    for (size_t c = 0; c < kPinDim; ++c) sweep(r, c) = samples[r][c];
  }
  std::vector<Matrix> sweep_blocks;
  for (size_t begin = 0; begin < sweep.rows();
       begin += kAcquisitionBlockRows) {
    Matrix& block = sweep_blocks.emplace_back(kAcquisitionBlockRows, kPinDim);
    for (size_t r = 0; r < kAcquisitionBlockRows; ++r) {
      for (size_t c = 0; c < kPinDim; ++c) block(r, c) = sweep(begin + r, c);
    }
  }
  std::vector<Matrix> stencils;
  for (size_t r = 0; r < 4; ++r) stencils.push_back(PinStencil(sweep, r, 0.1));
  Fnv1a hash;
  for (const std::vector<Matrix>* blocks : {&sweep_blocks, &stencils}) {
    for (const std::vector<double>& values :
         ConstrainedExpectedImprovementBatch(surrogate, *blocks, ctx, pool)) {
      for (double v : values) hash.AddDouble(v);
    }
  }
  return hash.hash();
}

// The hashes below were recorded from a GCC build, the compiler the
// repository's bit-exact goldens (ctest -L repro) are checked with; other
// compilers check only that every pool size gives the same bits. CEI values
// have one pair of hashes per SIMD tier: the AVX2 tier may round the GP
// arithmetic differently from the scalar one (linalg/simd/simd.h). The
// chosen theta is the same on both. ctest runs this suite a second time as
// repro_acquisition_values.
TEST(AcquisitionPinTest, CeiValuesKeepTheirBits) {
  const std::unique_ptr<MetaLearner> learner = PinMetaLearner();
  const AcquisitionContext meta_ctx = PinMetaContext(*learner);

  GpOptions gp_options;
  gp_options.optimize_hyperparams = false;
  MultiOutputGp gp(kPinDim, gp_options);
  const std::vector<Observation> gp_history = PinObservations(60, 5);
  ASSERT_TRUE(gp.Fit(gp_history).ok());
  const GpSurrogate gp_surrogate(&gp);
  AcquisitionContext gp_ctx;
  gp_ctx.has_feasible = true;
  gp_ctx.best_feasible_res = 55.0;
  gp_ctx.lambda_tps = 9500.0;
  gp_ctx.lambda_lat = 7.0;

  ThreadPool serial(1), wide(4);
  const uint64_t meta_hash = HashCeiValues(*learner, meta_ctx, &serial);
  const uint64_t gp_hash = HashCeiValues(gp_surrogate, gp_ctx, &serial);
  EXPECT_EQ(HashCeiValues(*learner, meta_ctx, &wide), meta_hash);
  EXPECT_EQ(HashCeiValues(gp_surrogate, gp_ctx, &wide), gp_hash);
#if defined(__GNUC__) && !defined(__clang__)
  const bool avx2 = simd::ActiveTier() == simd::Tier::kAvx2;
  EXPECT_EQ(meta_hash, avx2 ? 0x0e2a394ebbc11951ull : 0x94b09b847ac1d38full)
      << simd::TierName(simd::ActiveTier()) << " meta-learner CEI hash 0x"
      << std::hex << meta_hash;
  EXPECT_EQ(gp_hash, avx2 ? 0x456fe0d0551d943eull : 0x5ab58d7e6071498eull)
      << simd::TierName(simd::ActiveTier()) << " GP CEI hash 0x" << std::hex
      << gp_hash;
#endif
}

TEST(AcquisitionPinTest, ChosenThetaKeepsItsBits) {
  const std::unique_ptr<MetaLearner> learner = PinMetaLearner();
  const AcquisitionContext ctx = PinMetaContext(*learner);
  const auto maximize = [&](int num_refine, bool project, bool reject,
                            const Vector& crash, ThreadPool* pool) {
    AcqOptimizerOptions options;
    options.num_refine = num_refine;
    options.refine_passes = 6;
    options.pool = pool;
    if (project) {
      // A trust region: an L-infinity box of radius 0.15 around the centre.
      options.project = [](const Vector& theta) {
        Vector out = theta;
        for (double& v : out) v = std::clamp(v, 0.35, 0.65);
        return out;
      };
    }
    if (reject) {
      // A quarantine ball around the winner of the same search without it.
      options.reject = [crash](const Vector& theta) {
        double d2 = 0.0;
        for (size_t c = 0; c < theta.size(); ++c) {
          d2 += (theta[c] - crash[c]) * (theta[c] - crash[c]);
        }
        return d2 < 0.3 * 0.3;
      };
    }
    Rng rng(5);
    return MaximizeAcquisitionBatch(
        [&](const std::vector<Matrix>& blocks) {
          return ConstrainedExpectedImprovementBatch(*learner, blocks, ctx,
                                                     pool);
        },
        kPinDim, &rng, options);
  };
  ThreadPool one(1), two(2), three(3), four(4);
  static const uint64_t kGolden[] = {
      0x9db6b30aed83abd7ull, 0x5044b0fa7a06db1bull, 0xe1cd3bdcc6ceef82ull,
      0x1d40936ae1802d73ull, 0x9db6b30aed83abd7ull, 0x393100b32a36640bull,
      0xe1cd3bdcc6ceef82ull, 0x1d40936ae1802d73ull,
  };
  size_t c = 0;
  for (int num_refine : {4, 5}) {
    for (bool project : {false, true}) {
      const Vector crash = maximize(num_refine, project, false, {}, &one);
      for (bool reject : {false, true}) {
        const Vector reference =
            maximize(num_refine, project, reject, crash, &one);
        for (ThreadPool* pool : {&two, &three, &four}) {
          const Vector theta =
              maximize(num_refine, project, reject, crash, pool);
          ASSERT_EQ(theta.size(), reference.size());
          for (size_t d = 0; d < theta.size(); ++d) {
            EXPECT_EQ(theta[d], reference[d])
                << "case " << c << ", " << pool->num_threads()
                << " threads, dim " << d;
          }
        }
        Fnv1a hash;
        for (double v : reference) hash.AddDouble(v);
#if defined(__GNUC__) && !defined(__clang__)
        EXPECT_EQ(hash.hash(), kGolden[c])
            << "case " << c << " (num_refine " << num_refine << ", project "
            << project << ", reject " << reject << "): theta hash 0x"
            << hash.Hex();
#endif
        ++c;
      }
    }
  }
}

}  // namespace
}  // namespace restune
