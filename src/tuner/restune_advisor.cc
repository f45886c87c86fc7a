#include "tuner/restune_advisor.h"

#include "bo/batch.h"
#include "bo/lhs.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

obs::Counter* SuggestionsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global()->GetCounter(
      "restune_advisor_suggestions_total{advisor=\"restune\"}");
  return counter;
}

}  // namespace

ResTuneAdvisor::ResTuneAdvisor(size_t dim, Vector default_theta,
                               std::vector<BaseLearner> base_learners,
                               Vector target_meta_feature,
                               ResTuneAdvisorOptions options)
    : dim_(dim),
      default_theta_(std::move(default_theta)),
      options_(options),
      rng_(options.seed),
      quarantine_(options.quarantine) {
  MetaLearnerOptions meta_options = options_.meta;
  meta_options.seed = options_.seed ^ 0x9e3779b9;
  meta_learner_ = std::make_unique<MetaLearner>(
      dim_, std::move(base_learners), std::move(target_meta_feature),
      meta_options);
}

Status ResTuneAdvisor::Begin(const Observation& default_observation,
                             const SlaConstraints& sla) {
  sla_ = sla;
  if (!options_.workload_characterization_init) {
    pending_lhs_ = LatinHypercubeSample(
        static_cast<size_t>(options_.meta.static_weight_iterations), dim_,
        &rng_);
  }
  return Observe(default_observation);
}

Result<Vector> ResTuneAdvisor::SuggestNext() {
  RESTUNE_TRACE_SPAN("advisor.suggest");
  SuggestionsCounter()->Add();
  // Pending LHS points inside a quarantined region (a nearby config crashed
  // since the design was drawn) are skipped, not evaluated. An active trust
  // region clamps the design point like any other suggestion.
  while (!pending_lhs_.empty()) {
    Vector next = pending_lhs_.back();
    pending_lhs_.pop_back();
    if (trust_region_active_) {
      next = ClampToTrustRegion(next, trust_center_, trust_radius_);
    }
    if (!quarantine_.empty() && quarantine_.Contains(next)) continue;
    return next;
  }
  if (history_.empty()) {
    return Status::FailedPrecondition("no observations yet; call Begin first");
  }

  // Constraints are re-scaled into the surrogate's units by evaluating the
  // meta-learner at the default configuration: λ'_u = L_M(θ_d)
  // (Section 6.1). The incumbent is the best raw-feasible observation,
  // mapped through the target standardizer.
  AcquisitionContext ctx;
  ctx.lambda_tps =
      meta_learner_->RescaledThreshold(MetricKind::kTps, default_theta_);
  ctx.lambda_lat =
      meta_learner_->RescaledThreshold(MetricKind::kLat, default_theta_);
  const Observation* best_feasible = nullptr;
  for (const Observation& obs : history_) {
    if (!sla_.IsFeasible(obs)) continue;
    if (best_feasible == nullptr || obs.res < best_feasible->res) {
      best_feasible = &obs;
    }
  }
  if (best_feasible != nullptr) {
    ctx.has_feasible = true;
    // Plug-in incumbent: the surrogate's own prediction at the incumbent
    // keeps the EI target in the ensemble's (standardized, mixed) output
    // scale — a raw metric value would be incommensurable during the
    // static phase, when the target standardizer barely exists.
    ctx.best_feasible_res =
        meta_learner_->PredictMetric(MetricKind::kRes, best_feasible->theta)
            .mean;
  }

  // Batch acquisition: the whole candidate block flows through the
  // ensemble's matrix-level GP inference in one call per member, spread
  // over the acquisition optimizer's pool. Pending in-flight points damp
  // the acquisition locally so speculative proposals diversify.
  auto acquisition = [&](const Matrix& thetas) {
    std::vector<double> values = ConstrainedExpectedImprovementBatch(
        *meta_learner_, thetas, ctx, options_.acq_optimizer.pool);
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

Result<Vector> ResTuneAdvisor::SuggestNextAsync(
    const std::vector<Vector>& pending) {
  pending_penalty_ = pending;
  Result<Vector> next = SuggestNext();
  pending_penalty_.clear();
  return next;
}

void ResTuneAdvisor::SetTrustRegion(const Vector& center, double radius) {
  trust_region_active_ = true;
  trust_center_ = center;
  trust_radius_ = radius;
}

void ResTuneAdvisor::ClearTrustRegion() { trust_region_active_ = false; }

Status ResTuneAdvisor::Observe(const Observation& observation) {
  // Table 3's meta-data processing is the `meta.base_predictions` and
  // `meta.weights` spans inside AddObservation; the rest of this span is
  // the model update.
  RESTUNE_TRACE_SPAN("advisor.observe");
  history_.push_back(observation);
  return meta_learner_->AddObservation(observation);
}

Status ResTuneAdvisor::ObserveFailure(const Vector& theta,
                                      const EvaluationFault& fault) {
  if (theta.size() != dim_) {
    return Status::InvalidArgument("failure theta dimension mismatch");
  }
  if (fault.kind == FaultKind::kCrash || fault.kind == FaultKind::kTimeout ||
      fault.kind == FaultKind::kStall) {
    quarantine_.Add(theta);
  }
  // A failed configuration is a hard SLA violation for the ensemble's
  // constraint outputs (zero throughput, double the latency bound); the
  // resource output never sees it.
  if (sla_.max_lat > 0.0) {
    RESTUNE_RETURN_IF_ERROR(
        meta_learner_->AddFailure(theta, 0.0, 2.0 * sla_.max_lat));
  }
  return Status::OK();
}

}  // namespace restune
