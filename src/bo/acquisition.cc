#include "bo/acquisition.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "obs/metrics.h"

namespace restune {

namespace {

obs::Counter* CeiEvaluationsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global()->GetCounter(
      "restune_acq_cei_evaluations_total");
  return counter;
}

}  // namespace

double ExpectedImprovement(const GpPrediction& res, double best) {
  const double sigma = res.stddev();
  if (sigma < 1e-12) return std::max(0.0, best - res.mean);
  const double z = (best - res.mean) / sigma;
  return (best - res.mean) * NormalCdf(z) + sigma * NormalPdf(z);
}

double ProbabilityOfFeasibility(const GpPrediction& tps,
                                const GpPrediction& lat, double lambda_tps,
                                double lambda_lat) {
  const double tps_sigma = tps.stddev();
  const double lat_sigma = lat.stddev();
  const double p_tps =
      tps_sigma < 1e-12
          ? (tps.mean >= lambda_tps ? 1.0 : 0.0)
          : NormalCdf((tps.mean - lambda_tps) / tps_sigma);
  const double p_lat =
      lat_sigma < 1e-12
          ? (lat.mean <= lambda_lat ? 1.0 : 0.0)
          : NormalCdf((lambda_lat - lat.mean) / lat_sigma);
  return p_tps * p_lat;
}

double ConstrainedExpectedImprovement(const Surrogate& surrogate,
                                      const Vector& theta,
                                      const AcquisitionContext& ctx) {
  CeiEvaluationsCounter()->Add();
  const GpPrediction tps = surrogate.PredictMetric(MetricKind::kTps, theta);
  const GpPrediction lat = surrogate.PredictMetric(MetricKind::kLat, theta);
  const double p_feasible =
      ProbabilityOfFeasibility(tps, lat, ctx.lambda_tps, ctx.lambda_lat);
  if (!ctx.has_feasible) {
    // No incumbent yet: chase feasibility first.
    return p_feasible;
  }
  const GpPrediction res = surrogate.PredictMetric(MetricKind::kRes, theta);
  return p_feasible * ExpectedImprovement(res, ctx.best_feasible_res);
}

std::vector<double> ConstrainedExpectedImprovementBatch(
    const Surrogate& surrogate, const Matrix& thetas,
    const AcquisitionContext& ctx, ThreadPool* pool) {
  CeiEvaluationsCounter()->Add(static_cast<int64_t>(thetas.rows()));
  const std::vector<GpPrediction> tps =
      surrogate.PredictMetricBatch(MetricKind::kTps, thetas, pool);
  const std::vector<GpPrediction> lat =
      surrogate.PredictMetricBatch(MetricKind::kLat, thetas, pool);
  std::vector<double> out(thetas.rows());
  if (!ctx.has_feasible) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = ProbabilityOfFeasibility(tps[i], lat[i], ctx.lambda_tps,
                                        ctx.lambda_lat);
    }
    return out;
  }
  const std::vector<GpPrediction> res =
      surrogate.PredictMetricBatch(MetricKind::kRes, thetas, pool);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = ProbabilityOfFeasibility(tps[i], lat[i], ctx.lambda_tps,
                                      ctx.lambda_lat) *
             ExpectedImprovement(res[i], ctx.best_feasible_res);
  }
  return out;
}

double UnconstrainedExpectedImprovement(const Surrogate& surrogate,
                                        const Vector& theta,
                                        const AcquisitionContext& ctx) {
  const GpPrediction res = surrogate.PredictMetric(MetricKind::kRes, theta);
  return ExpectedImprovement(res, ctx.best_feasible_res);
}

std::vector<double> UnconstrainedExpectedImprovementBatch(
    const Surrogate& surrogate, const Matrix& thetas,
    const AcquisitionContext& ctx, ThreadPool* pool) {
  const std::vector<GpPrediction> res =
      surrogate.PredictMetricBatch(MetricKind::kRes, thetas, pool);
  std::vector<double> out(thetas.rows());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = ExpectedImprovement(res[i], ctx.best_feasible_res);
  }
  return out;
}

double PenalizedExpectedImprovement(const Surrogate& surrogate,
                                    const Vector& theta,
                                    const AcquisitionContext& ctx,
                                    double penalty) {
  const GpPrediction res = surrogate.PredictMetric(MetricKind::kRes, theta);
  const GpPrediction tps = surrogate.PredictMetric(MetricKind::kTps, theta);
  const GpPrediction lat = surrogate.PredictMetric(MetricKind::kLat, theta);
  // Expected violations under the Gaussian posteriors.
  const double tps_short = std::max(0.0, ctx.lambda_tps - tps.mean);
  const double lat_over = std::max(0.0, lat.mean - ctx.lambda_lat);
  const GpPrediction penalized{res.mean + penalty * (tps_short + lat_over),
                               res.variance};
  return ExpectedImprovement(penalized, ctx.best_feasible_res);
}

std::vector<double> PenalizedExpectedImprovementBatch(
    const Surrogate& surrogate, const Matrix& thetas,
    const AcquisitionContext& ctx, double penalty, ThreadPool* pool) {
  const std::vector<GpPrediction> res =
      surrogate.PredictMetricBatch(MetricKind::kRes, thetas, pool);
  const std::vector<GpPrediction> tps =
      surrogate.PredictMetricBatch(MetricKind::kTps, thetas, pool);
  const std::vector<GpPrediction> lat =
      surrogate.PredictMetricBatch(MetricKind::kLat, thetas, pool);
  std::vector<double> out(thetas.rows());
  for (size_t i = 0; i < out.size(); ++i) {
    const double tps_short = std::max(0.0, ctx.lambda_tps - tps[i].mean);
    const double lat_over = std::max(0.0, lat[i].mean - ctx.lambda_lat);
    const GpPrediction penalized{
        res[i].mean + penalty * (tps_short + lat_over), res[i].variance};
    out[i] = ExpectedImprovement(penalized, ctx.best_feasible_res);
  }
  return out;
}

}  // namespace restune
