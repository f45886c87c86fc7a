#include "tuner/cbo_advisor.h"

#include "bo/batch.h"
#include "bo/lhs.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

CboAdvisor::CboAdvisor(std::string name, size_t dim,
                       CboAdvisorOptions options)
    : name_(std::move(name)),
      dim_(dim),
      options_(options),
      rng_(options.seed),
      gp_(dim, options.gp),
      quarantine_(options.quarantine),
      exact_surrogate_(&gp_) {
  if (options_.surrogate_backend != SurrogateBackend::kExactGp) {
    ScalableSurrogateOptions so;
    so.backend = options_.surrogate_backend;
    so.subset_size = options_.surrogate_subset_size;
    so.forest = options_.surrogate_forest;
    so.gp = options_.gp;
    approx_ = std::make_unique<ScalableSurrogate>(dim_, so);
  }
}

Status CboAdvisor::Begin(const Observation& default_observation,
                         const SlaConstraints& sla) {
  sla_ = sla;
  pending_lhs_ = LatinHypercubeSample(
      static_cast<size_t>(options_.initial_lhs_samples), dim_, &rng_);
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

Result<Vector> CboAdvisor::SuggestNext() {
  RESTUNE_TRACE_SPAN("advisor.suggest");
  static obs::Counter* suggestions =
      obs::MetricsRegistry::Global()->GetCounter(
          "restune_advisor_suggestions_total{advisor=\"cbo\"}");
  suggestions->Add();
  // Pending LHS points that landed inside a quarantined region (a config
  // nearby crashed since the design was drawn) are skipped, not evaluated.
  // An active trust region clamps the design point like any suggestion.
  while (!pending_lhs_.empty()) {
    Vector next = pending_lhs_.back();
    pending_lhs_.pop_back();
    if (trust_region_active_) {
      next = ClampToTrustRegion(next, trust_center_, trust_radius_);
    }
    if (!quarantine_.empty() && quarantine_.Contains(next)) continue;
    return next;
  }
  const Surrogate* surrogate_ptr = nullptr;
  {
    Result<const Surrogate*> active = ActiveSurrogate();
    if (!active.ok()) return active.status();
    surrogate_ptr = active.value();
  }
  const Surrogate& surrogate = *surrogate_ptr;
  const AcquisitionContext ctx = MakeContext();
  // The optimizer's pool drives the surrogate's batch inference too, so
  // the candidate sweep parallelizes instead of bottlenecking on the
  // calling thread (predictions are pool-size invariant).
  ThreadPool* acq_pool = options_.acq_optimizer.pool;
  auto acquisition = [&, acq_pool](const Matrix& thetas) {
    std::vector<double> values;
    switch (options_.acquisition) {
      case CboAcquisition::kConstrainedEi:
        values = ConstrainedExpectedImprovementBatch(surrogate, thetas, ctx,
                                                     acq_pool);
        break;
      case CboAcquisition::kUnconstrainedEi:
        values = UnconstrainedExpectedImprovementBatch(surrogate, thetas, ctx,
                                                       acq_pool);
        break;
      case CboAcquisition::kPenalizedEi:
        values = PenalizedExpectedImprovementBatch(surrogate, thetas, ctx,
                                                   options_.penalty, acq_pool);
        break;
    }
    if (values.empty()) values.assign(thetas.rows(), 0.0);
    PenalizeNearPoints(thetas, pending_penalty_,
                       options_.pending_penalty_radius, &values);
    return values;
  };
  AcqOptimizerOptions acq_options = options_.acq_optimizer;
  if (!quarantine_.empty()) {
    acq_options.reject = [this](const Vector& theta) {
      return quarantine_.Contains(theta);
    };
  }
  if (trust_region_active_) {
    acq_options.project = [this](const Vector& theta) {
      return ClampToTrustRegion(theta, trust_center_, trust_radius_);
    };
  }
  return MaximizeAcquisitionBatch(acquisition, dim_, &rng_, acq_options);
}

Result<Vector> CboAdvisor::SuggestNextAsync(
    const std::vector<Vector>& pending) {
  pending_penalty_ = pending;
  Result<Vector> next = SuggestNext();
  pending_penalty_.clear();
  return next;
}

void CboAdvisor::SetTrustRegion(const Vector& center, double radius) {
  trust_region_active_ = true;
  trust_center_ = center;
  trust_radius_ = radius;
}

void CboAdvisor::ClearTrustRegion() { trust_region_active_ = false; }

Result<const Surrogate*> CboAdvisor::ActiveSurrogate() {
  if (approx_ == nullptr) {
    if (!gp_.fitted()) {
      return Status::FailedPrecondition(
          "no observations yet; call Begin first");
    }
    return static_cast<const Surrogate*>(&exact_surrogate_);
  }
  if (history_.empty()) {
    return Status::FailedPrecondition("no observations yet; call Begin first");
  }
  // Approximate backends refit from scratch on demand: the whole point is
  // that one subset-GP or forest fit is cheaper than maintaining an exact
  // factorization at n=10k, so per-suggest refits stay bounded.
  if (approx_dirty_ || !approx_->fitted()) {
    RESTUNE_RETURN_IF_ERROR(approx_->Fit(history_));
    approx_dirty_ = false;
  }
  return static_cast<const Surrogate*>(approx_.get());
}

Status CboAdvisor::Observe(const Observation& observation) {
  RESTUNE_TRACE_SPAN("advisor.observe");
  history_.push_back(observation);
  if (approx_ == nullptr) {
    RESTUNE_RETURN_IF_ERROR(gp_.Update(observation));
  } else {
    // Exact-GP bookkeeping is skipped entirely — the approximate surrogate
    // refits from `history_` at the next suggestion.
    approx_dirty_ = true;
  }
  return Status::OK();
}

Status CboAdvisor::ObserveFailure(const Vector& theta,
                                  const EvaluationFault& fault) {
  if (theta.size() != dim_) {
    return Status::InvalidArgument("failure theta dimension mismatch");
  }
  // Fatal kinds (the DBMS died or hung) quarantine the surrounding knob box
  // so acquisition maximization never proposes an adjacent configuration.
  if (fault.kind == FaultKind::kCrash || fault.kind == FaultKind::kTimeout ||
      fault.kind == FaultKind::kStall) {
    quarantine_.Add(theta);
  }
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
