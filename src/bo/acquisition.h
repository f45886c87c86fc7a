#ifndef RESTUNE_BO_ACQUISITION_H_
#define RESTUNE_BO_ACQUISITION_H_

#include <vector>

#include "bo/surrogate.h"
#include "gp/gp_model.h"

namespace restune {

/// Inputs the constrained acquisition functions need besides the surrogate:
/// the incumbent and the (possibly re-scaled, Section 6.1) SLA thresholds.
struct AcquisitionContext {
  /// f_res of the best *feasible* configuration seen so far, in the
  /// surrogate's output units. Ignored when `has_feasible` is false.
  double best_feasible_res = 0.0;
  bool has_feasible = false;
  /// Throughput lower bound λ_tps (surrogate units).
  double lambda_tps = 0.0;
  /// Latency upper bound λ_lat (surrogate units).
  double lambda_lat = 0.0;
};

/// Expected improvement of a *minimization* objective over `best`:
/// E[max(0, best - f)] for f ~ N(mean, variance) (paper Eq. 2).
double ExpectedImprovement(const GpPrediction& res, double best);

/// Pr[tps >= λ_tps] * Pr[lat <= λ_lat] under independent Gaussian posteriors
/// — the feasibility weight of paper Eq. 5.
double ProbabilityOfFeasibility(const GpPrediction& tps,
                                const GpPrediction& lat, double lambda_tps,
                                double lambda_lat);

/// Acquisition values of a list of candidate blocks: one vector per block,
/// one value per row.
using BlockValues = std::vector<std::vector<double>>;

/// Constrained Expected Improvement (paper Eq. 5) of every row of every
/// block:
///   CEI(θ) = Pr[feasible] * EI(θ).
/// Before any feasible point is known, returns the probability of
/// feasibility alone, so the search is first driven into the feasible
/// region — the standard Gardner et al. behaviour the paper builds on.
///
/// The metric posteriors come from one pool loop over (block, metric)
/// tasks; each task is one `Surrogate::PredictMetricBatch` call on its
/// block, run inline inside the task. The posteriors are then combined per
/// row with `ProbabilityOfFeasibility` and `ExpectedImprovement`, so a
/// block's values are bitwise what scoring it alone gives. A call holding
/// fewer rows in total than `ThreadPool::kRangeGrain` runs every task
/// inline. Values are bitwise identical for any pool size (null = shared
/// pool), so callers can hand the acquisition optimizer's pool straight
/// through. Each scored row adds one to
/// `restune_acq_cei_evaluations_total`.
BlockValues ConstrainedExpectedImprovementBatch(
    const Surrogate& surrogate, const std::vector<Matrix>& blocks,
    const AcquisitionContext& ctx, ThreadPool* pool = nullptr);

/// Plain EI on the resource objective, ignoring constraints — the
/// acquisition used by the iTuned baseline (Section 7, "iTuned").
/// Scheduled like the CEI batch.
BlockValues UnconstrainedExpectedImprovementBatch(
    const Surrogate& surrogate, const std::vector<Matrix>& blocks,
    const AcquisitionContext& ctx, ThreadPool* pool = nullptr);

/// Penalty-based alternative kept for ablation (Section 2 cites penalty
/// methods as the simplest constrained-BO approach): EI computed on
/// res + penalty * (constraint violation of the posterior means).
/// Scheduled like the CEI batch.
BlockValues PenalizedExpectedImprovementBatch(
    const Surrogate& surrogate, const std::vector<Matrix>& blocks,
    const AcquisitionContext& ctx, double penalty,
    ThreadPool* pool = nullptr);

}  // namespace restune

#endif  // RESTUNE_BO_ACQUISITION_H_
