#include "tuner/cbo_advisor.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

CboAdvisor::CboAdvisor(std::string name, size_t dim,
                       CboAdvisorOptions options)
    : name_(std::move(name)),
      dim_(dim),
      options_(options),
      step_(dim, options.seed, options.quarantine, options.acq_optimizer),
      gp_(dim, options.gp),
      gp_surrogate_(&gp_) {}

Status CboAdvisor::Begin(const Observation& default_observation,
                         const SlaConstraints& sla) {
  sla_ = sla;
  step_.QueueDesign(static_cast<size_t>(options_.initial_lhs_samples));
  return Observe(default_observation);
}

AcquisitionContext CboAdvisor::MakeContext() const {
  AcquisitionContext ctx;
  ctx.lambda_tps = sla_.min_tps;
  ctx.lambda_lat = sla_.max_lat;
  for (const Observation& obs : history_) {
    const bool counts = options_.acquisition ==
                                CboAcquisition::kUnconstrainedEi
                            ? true
                            : sla_.IsFeasible(obs);
    if (!counts) continue;
    if (!ctx.has_feasible || obs.res < ctx.best_feasible_res) {
      ctx.has_feasible = true;
      ctx.best_feasible_res = obs.res;
    }
  }
  return ctx;
}

Result<Vector> CboAdvisor::SuggestNextAsync(const SuggestionRequest& request) {
  RESTUNE_TRACE_SPAN("advisor.suggest");
  static obs::Counter* suggestions =
      obs::MetricsRegistry::Global()->GetCounter(
          "restune_advisor_suggestions_total{advisor=\"cbo\"}");
  suggestions->Add();
  if (std::optional<Vector> design = step_.NextDesignPoint(request)) {
    return *std::move(design);
  }
  if (!gp_.fitted()) {
    return Status::FailedPrecondition("no observations yet; call Begin first");
  }
  const AcquisitionContext ctx = MakeContext();
  // The optimizer's pool drives the surrogate's batch inference too, so
  // the candidate sweep parallelizes instead of bottlenecking on the
  // calling thread (predictions are pool-size invariant).
  ThreadPool* acq_pool = options_.acq_optimizer.pool;
  return step_.Maximize(
      request,
      [&, acq_pool](const std::vector<Matrix>& blocks) -> BlockValues {
        switch (options_.acquisition) {
          case CboAcquisition::kConstrainedEi:
            return ConstrainedExpectedImprovementBatch(gp_surrogate_, blocks,
                                                       ctx, acq_pool);
          case CboAcquisition::kUnconstrainedEi:
            return UnconstrainedExpectedImprovementBatch(gp_surrogate_, blocks,
                                                         ctx, acq_pool);
          case CboAcquisition::kPenalizedEi:
            return PenalizedExpectedImprovementBatch(
                gp_surrogate_, blocks, ctx, options_.penalty, acq_pool);
        }
        BlockValues zeros;
        for (const Matrix& block : blocks) zeros.emplace_back(block.rows());
        return zeros;
      });
}

Status CboAdvisor::Observe(const Observation& observation) {
  RESTUNE_TRACE_SPAN("advisor.observe");
  history_.push_back(observation);
  return gp_.Update(observation);
}

Status CboAdvisor::ObserveFailure(const Vector& theta,
                                  const EvaluationFault& fault) {
  if (theta.size() != dim_) {
    return Status::InvalidArgument("failure theta dimension mismatch");
  }
  // Fatal kinds (the DBMS died or hung) quarantine the surrounding knob box
  // so acquisition maximization never proposes an adjacent configuration.
  step_.ObserveFailure(theta, fault.kind);
  // The failed configuration enters the constraint models as a hard SLA
  // violation (zero throughput, double the latency bound) — evidence that
  // this region is infeasible — but never the resource model, which must
  // not learn from a fabricated resource value.
  if (gp_.fitted() && sla_.max_lat > 0.0) {
    Observation penalized;
    penalized.theta = theta;
    penalized.tps = 0.0;
    penalized.lat = 2.0 * sla_.max_lat;
    RESTUNE_RETURN_IF_ERROR(gp_.UpdateConstraintOnly(penalized));
  }
  return Status::OK();
}

}  // namespace restune
