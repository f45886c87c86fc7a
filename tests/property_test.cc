#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "bo/acquisition.h"
#include "bo/lhs.h"
#include "common/rng.h"
#include "dbsim/simulator.h"
#include "gp/gp_model.h"
#include "meta/standardizer.h"

namespace restune {
namespace {

// ======================================================================
// GP interpolation property, swept over dimension and sample count.
// ======================================================================

class GpInterpolationProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GpInterpolationProperty, PosteriorMeanNearTrainingTargets) {
  const auto [dim, n] = GetParam();
  Rng rng(static_cast<uint64_t>(dim * 1000 + n));
  GpOptions options;
  options.noise_variance = 1e-6;
  options.hyperopt_max_iters = 25;
  GpModel gp(static_cast<size_t>(dim), options);

  const auto points =
      LatinHypercubeSample(static_cast<size_t>(n), static_cast<size_t>(dim),
                           &rng);
  Matrix x(static_cast<size_t>(n), static_cast<size_t>(dim));
  Vector y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double value = 0.0;
    for (int d = 0; d < dim; ++d) {
      x(i, d) = points[i][d];
      value += std::sin(2.0 * points[i][d] + d);
    }
    y[i] = value;
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(gp.Predict(x.Row(i)).mean, y[i], 0.15)
        << "dim=" << dim << " n=" << n << " i=" << i;
    EXPECT_GE(gp.Predict(x.Row(i)).variance, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSizes, GpInterpolationProperty,
    ::testing::Combine(::testing::Values(1, 3, 6, 14),
                       ::testing::Values(10, 25, 50)));

// ======================================================================
// CEI invariants swept over threshold placements.
// ======================================================================

class CeiProperty : public ::testing::TestWithParam<double> {
 protected:
  /// res rises with θ; tps rises with θ (so feasibility depends on the
  /// sweep's threshold).
  class LinearSurrogate : public Surrogate {
   public:
    /// The closed-form posterior of `kind` at θ₀ = x.
    static GpPrediction Posterior(MetricKind kind, double x) {
      switch (kind) {
        case MetricKind::kRes:
          return {x * 100.0, 4.0};
        case MetricKind::kTps:
          return {x * 1000.0, 100.0};
        case MetricKind::kLat:
          return {5.0, 0.01};
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

  /// One single-knob block with rows 0, step, 2·step, ... up to 1.
  static Matrix Sweep(double step) {
    std::vector<double> xs;
    for (double t = 0.0; t <= 1.0; t += step) xs.push_back(t);
    Matrix block(xs.size(), 1);
    for (size_t r = 0; r < xs.size(); ++r) block(r, 0) = xs[r];
    return block;
  }
};

TEST_P(CeiProperty, NonNegativeAndBoundedByEi) {
  const double lambda_tps = GetParam();
  LinearSurrogate surrogate;
  AcquisitionContext ctx;
  ctx.has_feasible = true;
  ctx.best_feasible_res = 50.0;
  ctx.lambda_tps = lambda_tps;
  ctx.lambda_lat = 10.0;
  const Matrix thetas = Sweep(0.05);
  const std::vector<double> cei =
      ConstrainedExpectedImprovementBatch(surrogate, {thetas}, ctx).front();
  ASSERT_EQ(cei.size(), thetas.rows());
  for (size_t r = 0; r < thetas.rows(); ++r) {
    const double ei = ExpectedImprovement(
        LinearSurrogate::Posterior(MetricKind::kRes, thetas(r, 0)),
        ctx.best_feasible_res);
    EXPECT_GE(cei[r], 0.0);
    // Feasibility probability is <= 1, so CEI <= EI (paper Eq. 5).
    EXPECT_LE(cei[r], ei + 1e-9);
  }
}

TEST_P(CeiProperty, TighterConstraintNeverRaisesAcquisition) {
  const double lambda_tps = GetParam();
  LinearSurrogate surrogate;
  AcquisitionContext loose, tight;
  loose.has_feasible = tight.has_feasible = true;
  loose.best_feasible_res = tight.best_feasible_res = 50.0;
  loose.lambda_lat = tight.lambda_lat = 10.0;
  loose.lambda_tps = lambda_tps;
  tight.lambda_tps = lambda_tps + 200.0;
  const Matrix thetas = Sweep(0.1);
  const std::vector<double> tight_cei =
      ConstrainedExpectedImprovementBatch(surrogate, {thetas}, tight).front();
  const std::vector<double> loose_cei =
      ConstrainedExpectedImprovementBatch(surrogate, {thetas}, loose).front();
  ASSERT_EQ(tight_cei.size(), thetas.rows());
  for (size_t r = 0; r < thetas.rows(); ++r) {
    EXPECT_LE(tight_cei[r], loose_cei[r] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CeiProperty,
                         ::testing::Values(100.0, 300.0, 500.0, 800.0));

// ======================================================================
// Engine-model monotonicity properties swept over workloads and hardware.
// ======================================================================

struct EngineCase {
  WorkloadKind workload;
  char instance;
};

class EngineMonotonicityProperty
    : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineMonotonicityProperty, BiggerBufferPoolNeverHurtsHitRatio) {
  const auto [kind, label] = GetParam();
  const HardwareSpec hw = HardwareInstance(label).value();
  const WorkloadProfile w = MakeWorkload(kind).value();
  double prev_hit = -1.0;
  for (double bp : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    EngineConfig c = EngineConfig::Defaults(hw);
    c.buffer_pool_gb = bp;
    const PerfMetrics m = EngineModel::Evaluate(c, hw, w);
    EXPECT_GE(m.buffer_hit_ratio, prev_hit - 1e-9)
        << w.name << " bp=" << bp;
    prev_hit = m.buffer_hit_ratio;
  }
}

TEST_P(EngineMonotonicityProperty, ThroughputNeverExceedsRequestRate) {
  const auto [kind, label] = GetParam();
  const HardwareSpec hw = HardwareInstance(label).value();
  const WorkloadProfile w = MakeWorkload(kind).value();
  Rng rng(static_cast<uint64_t>(label));
  const KnobSpace space = CpuKnobSpace();
  for (const Vector& theta : LatinHypercubeSample(30, space.dim(), &rng)) {
    EngineConfig c = EngineConfig::Defaults(hw);
    ASSERT_TRUE(ApplyKnobs(space, theta, &c).ok());
    const PerfMetrics m = EngineModel::Evaluate(c, hw, w);
    if (w.request_rate > 0) {
      EXPECT_LE(m.tps, w.request_rate + 1e-6) << w.name;
    }
    EXPECT_GT(m.tps, 0.0);
    EXPECT_GT(m.latency_p99_ms, 0.0);
    EXPECT_GE(m.cpu_util_pct, 0.0);
    EXPECT_LE(m.cpu_util_pct, 100.0);
    EXPECT_GT(m.mem_gb, 0.0);
    EXPECT_LE(m.mem_gb, hw.ram_gb * 1.5) << "memory beyond physical bounds";
    EXPECT_GE(m.buffer_hit_ratio, 0.0);
    EXPECT_LE(m.buffer_hit_ratio, 1.0);
    EXPECT_GE(m.io_iops, 0.0);
    EXPECT_GE(m.io_mbps, 0.0);
  }
}

TEST_P(EngineMonotonicityProperty, MoreSpinWorkNeverReducesCpu) {
  const auto [kind, label] = GetParam();
  const HardwareSpec hw = HardwareInstance(label).value();
  const WorkloadProfile w = MakeWorkload(kind).value();
  double prev_cpu = -1.0;
  for (double loops : {0.0, 30.0, 300.0, 3000.0}) {
    EngineConfig c = EngineConfig::Defaults(hw);
    c.sync_spin_loops = loops;
    const PerfMetrics m = EngineModel::Evaluate(c, hw, w);
    if (m.tps >= w.request_rate * 0.999) {
      // Only comparable while rate-bound (equal useful work).
      EXPECT_GE(m.cpu_util_pct, prev_cpu - 1e-6) << w.name;
      prev_cpu = m.cpu_util_pct;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndInstances, EngineMonotonicityProperty,
    ::testing::Values(EngineCase{WorkloadKind::kSysbench, 'A'},
                      EngineCase{WorkloadKind::kTpcc, 'A'},
                      EngineCase{WorkloadKind::kTwitter, 'A'},
                      EngineCase{WorkloadKind::kHotel, 'E'},
                      EngineCase{WorkloadKind::kSales, 'F'},
                      EngineCase{WorkloadKind::kTwitter, 'B'}));

// ======================================================================
// Standardizer properties over random observation sets.
// ======================================================================

class StandardizerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StandardizerProperty, StandardizationIsAffineAndOrderPreserving) {
  Rng rng(GetParam());
  std::vector<Observation> obs;
  for (int i = 0; i < 30; ++i) {
    Observation o;
    o.theta = {rng.Uniform()};
    o.res = rng.Uniform(10, 90);
    o.tps = rng.Uniform(1e3, 3e4);
    o.lat = rng.Uniform(0.5, 200);
    obs.push_back(o);
  }
  const auto s = MetricStandardizer::FromObservations(obs);
  for (MetricKind kind : kAllMetricKinds) {
    for (size_t i = 0; i + 1 < obs.size(); ++i) {
      const double a = obs[i].metric(kind);
      const double b = obs[i + 1].metric(kind);
      // Order preservation (what ranking-loss weighting relies on).
      EXPECT_EQ(a < b, s.Standardize(kind, a) < s.Standardize(kind, b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StandardizerProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ======================================================================
// Simulator noise magnitude property.
// ======================================================================

class SimulatorNoiseProperty : public ::testing::TestWithParam<double> {};

TEST_P(SimulatorNoiseProperty, NoiseTracksConfiguredStd) {
  const double noise = GetParam();
  SimulatorOptions options;
  options.noise_std = noise;
  options.seed = 99;
  DbInstanceSimulator sim(CaseStudyKnobSpace(), HardwareInstance('A').value(),
                          MakeWorkload(WorkloadKind::kTwitter).value(),
                          options);
  const Vector theta = sim.knob_space().DefaultTheta();
  const double exact = sim.EvaluateExact(theta)->cpu_util_pct;
  std::vector<double> rel;
  for (int i = 0; i < 200; ++i) {
    rel.push_back(sim.Evaluate(theta)->res / exact - 1.0);
  }
  double mean = 0.0, var = 0.0;
  for (double r : rel) mean += r;
  mean /= rel.size();
  for (double r : rel) var += (r - mean) * (r - mean);
  var /= rel.size();
  EXPECT_NEAR(std::sqrt(var), noise, noise * 0.35 + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, SimulatorNoiseProperty,
                         ::testing::Values(0.0, 0.005, 0.01, 0.03));

}  // namespace
}  // namespace restune
