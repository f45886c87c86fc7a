#include "bo/acquisition.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace restune {

namespace {

obs::Counter* CeiEvaluationsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global()->GetCounter(
      "restune_acq_cei_evaluations_total");
  return counter;
}

/// posteriors[k][i]: the posterior of the k-th requested metric at row i
/// of one block.
using BlockPosteriors = std::vector<std::vector<GpPrediction>>;

/// Scores every row of every block as `value(posteriors, i)` from the
/// block's posteriors of `kinds`. The posteriors come from one pool loop
/// over the (block, metric) tasks, each a single-block `PredictMetricBatch`
/// call that owns its output slot; the surrogate's own loops run inline
/// inside the task. A call holding fewer rows in total than the pool's
/// range grain runs every task inline on the caller, where waking a worker
/// would cost more than the rows it could take.
template <typename RowValue>
BlockValues ScoreBlocks(const Surrogate& surrogate,
                        const std::vector<Matrix>& blocks,
                        const std::vector<MetricKind>& kinds, ThreadPool* pool,
                        const RowValue& value) {
  std::vector<BlockPosteriors> posteriors(blocks.size(),
                                          BlockPosteriors(kinds.size()));
  const auto task = [&](size_t t) {
    const size_t b = t / kinds.size();
    const size_t k = t % kinds.size();
    posteriors[b][k] = surrogate.PredictMetricBatch(kinds[k], blocks[b], pool);
  };
  const size_t tasks = blocks.size() * kinds.size();
  size_t rows = 0;
  for (const Matrix& block : blocks) rows += block.rows();
  if (rows < ThreadPool::kRangeGrain) {
    for (size_t t = 0; t < tasks; ++t) task(t);
  } else {
    ResolvePool(pool)->ParallelFor(tasks, task);
  }
  BlockValues out(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    out[b].resize(blocks[b].rows());
    for (size_t i = 0; i < out[b].size(); ++i) {
      out[b][i] = value(posteriors[b], i);
    }
  }
  return out;
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

BlockValues ConstrainedExpectedImprovementBatch(
    const Surrogate& surrogate, const std::vector<Matrix>& blocks,
    const AcquisitionContext& ctx, ThreadPool* pool) {
  for (const Matrix& block : blocks) {
    CeiEvaluationsCounter()->Add(static_cast<int64_t>(block.rows()));
  }
  if (!ctx.has_feasible) {
    // No incumbent yet: chase feasibility first.
    return ScoreBlocks(
        surrogate, blocks, {MetricKind::kTps, MetricKind::kLat}, pool,
        [&](const BlockPosteriors& p, size_t i) {
          return ProbabilityOfFeasibility(p[0][i], p[1][i], ctx.lambda_tps,
                                          ctx.lambda_lat);
        });
  }
  return ScoreBlocks(
      surrogate, blocks, {MetricKind::kTps, MetricKind::kLat, MetricKind::kRes},
      pool, [&](const BlockPosteriors& p, size_t i) {
        return ProbabilityOfFeasibility(p[0][i], p[1][i], ctx.lambda_tps,
                                        ctx.lambda_lat) *
               ExpectedImprovement(p[2][i], ctx.best_feasible_res);
      });
}

BlockValues UnconstrainedExpectedImprovementBatch(
    const Surrogate& surrogate, const std::vector<Matrix>& blocks,
    const AcquisitionContext& ctx, ThreadPool* pool) {
  return ScoreBlocks(surrogate, blocks, {MetricKind::kRes}, pool,
                     [&](const BlockPosteriors& p, size_t i) {
                       return ExpectedImprovement(p[0][i],
                                                  ctx.best_feasible_res);
                     });
}

BlockValues PenalizedExpectedImprovementBatch(
    const Surrogate& surrogate, const std::vector<Matrix>& blocks,
    const AcquisitionContext& ctx, double penalty, ThreadPool* pool) {
  return ScoreBlocks(
      surrogate, blocks, {MetricKind::kRes, MetricKind::kTps, MetricKind::kLat},
      pool, [&](const BlockPosteriors& p, size_t i) {
        const GpPrediction& res = p[0][i];
        const double tps_short = std::max(0.0, ctx.lambda_tps - p[1][i].mean);
        const double lat_over = std::max(0.0, p[2][i].mean - ctx.lambda_lat);
        const GpPrediction penalized{
            res.mean + penalty * (tps_short + lat_over), res.variance};
        return ExpectedImprovement(penalized, ctx.best_feasible_res);
      });
}

}  // namespace restune
