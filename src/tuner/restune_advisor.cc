#include "tuner/restune_advisor.h"

#include "bo/acquisition.h"
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
      step_(dim, options.seed, options.quarantine, options.acq_optimizer) {
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
    step_.QueueDesign(
        static_cast<size_t>(options_.meta.static_weight_iterations));
  }
  return Observe(default_observation);
}

Result<Vector> ResTuneAdvisor::SuggestNextAsync(
    const SuggestionRequest& request) {
  RESTUNE_TRACE_SPAN("advisor.suggest");
  SuggestionsCounter()->Add();
  if (std::optional<Vector> design = step_.NextDesignPoint(request)) {
    return *std::move(design);
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

  // Batch acquisition: each candidate block flows through the ensemble's
  // matrix-level GP inference, one pool task per block and metric on the
  // acquisition optimizer's pool.
  return step_.Maximize(request, [&](const std::vector<Matrix>& blocks) {
    return ConstrainedExpectedImprovementBatch(*meta_learner_, blocks, ctx,
                                               options_.acq_optimizer.pool);
  });
}

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
  step_.ObserveFailure(theta, fault.kind);
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
