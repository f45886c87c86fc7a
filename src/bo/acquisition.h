#ifndef RESTUNE_BO_ACQUISITION_H_
#define RESTUNE_BO_ACQUISITION_H_

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

/// Constrained Expected Improvement (paper Eq. 5):
///   CEI(θ) = Pr[feasible] * EI(θ).
/// Before any feasible point is known, returns the probability of
/// feasibility alone, so the search is first driven into the feasible
/// region — the standard Gardner et al. behaviour the paper builds on.
double ConstrainedExpectedImprovement(const Surrogate& surrogate,
                                      const Vector& theta,
                                      const AcquisitionContext& ctx);

/// CEI over every row of `thetas` through the surrogate's batch path: the
/// three metric posteriors for the whole candidate block are computed as
/// matrix-level GP inference, then combined per candidate. Value i equals
/// the scalar CEI of row i. The batch inference distributes over `pool`
/// (null = shared pool); values are bitwise identical for any pool size,
/// so callers can hand the acquisition optimizer's pool straight through.
std::vector<double> ConstrainedExpectedImprovementBatch(
    const Surrogate& surrogate, const Matrix& thetas,
    const AcquisitionContext& ctx, ThreadPool* pool = nullptr);

/// Plain EI on the resource objective, ignoring constraints — the
/// acquisition used by the iTuned baseline (Section 7, "iTuned").
double UnconstrainedExpectedImprovement(const Surrogate& surrogate,
                                        const Vector& theta,
                                        const AcquisitionContext& ctx);

/// Batch counterpart of `UnconstrainedExpectedImprovement`.
std::vector<double> UnconstrainedExpectedImprovementBatch(
    const Surrogate& surrogate, const Matrix& thetas,
    const AcquisitionContext& ctx, ThreadPool* pool = nullptr);

/// Penalty-based alternative kept for ablation (Section 2 cites penalty
/// methods as the simplest constrained-BO approach): EI computed on
/// res + penalty * E[constraint violation].
double PenalizedExpectedImprovement(const Surrogate& surrogate,
                                    const Vector& theta,
                                    const AcquisitionContext& ctx,
                                    double penalty);

/// Batch counterpart of `PenalizedExpectedImprovement`.
std::vector<double> PenalizedExpectedImprovementBatch(
    const Surrogate& surrogate, const Matrix& thetas,
    const AcquisitionContext& ctx, double penalty,
    ThreadPool* pool = nullptr);

}  // namespace restune

#endif  // RESTUNE_BO_ACQUISITION_H_
