#include "tuner/ottertune_advisor.h"

#include <cmath>
#include <limits>

#include "bo/acquisition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

/// Mean internal-metric vector over a set of observations; empty if none
/// carry internals.
Vector MeanInternals(const std::vector<Observation>& observations) {
  Vector mean;
  size_t count = 0;
  for (const Observation& obs : observations) {
    if (obs.internals.empty()) continue;
    if (mean.empty()) mean.assign(obs.internals.size(), 0.0);
    if (obs.internals.size() != mean.size()) continue;
    for (size_t i = 0; i < mean.size(); ++i) mean[i] += obs.internals[i];
    ++count;
  }
  if (count > 0) {
    for (double& v : mean) v /= static_cast<double>(count);
  }
  return mean;
}

}  // namespace

OtterTuneAdvisor::OtterTuneAdvisor(size_t dim,
                                   std::vector<TuningTask> repository_tasks,
                                   OtterTuneAdvisorOptions options)
    : dim_(dim),
      tasks_(std::move(repository_tasks)),
      options_(options),
      step_(dim, options.seed, QuarantineOptions{}, options.acq_optimizer) {
  gp_ = std::make_unique<MultiOutputGp>(dim_, options_.gp);
}

Status OtterTuneAdvisor::Begin(const Observation& default_observation,
                               const SlaConstraints& sla) {
  sla_ = sla;
  step_.QueueDesign(static_cast<size_t>(options_.initial_lhs_samples));
  return Observe(default_observation);
}

Status OtterTuneAdvisor::Remap() {
  RESTUNE_TRACE_SPAN("meta.remap");
  // OtterTune's workload mapping: nearest historical workload by Euclidean
  // distance of raw internal-metric vectors (absolute distances — the
  // hardware-scale weakness the paper contrasts against ranking loss).
  const Vector target_sig = MeanInternals(history_);
  if (target_sig.empty()) {
    mapped_task_ = -1;
    return Status::OK();
  }
  double best = std::numeric_limits<double>::infinity();
  int best_task = -1;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const Vector sig = MeanInternals(tasks_[t].observations);
    if (sig.size() != target_sig.size() || sig.empty()) continue;
    const double d = std::sqrt(SquaredDistance(sig, target_sig));
    if (d < best) {
      best = d;
      best_task = static_cast<int>(t);
    }
  }
  mapped_task_ = best_task;
  return Status::OK();
}

Status OtterTuneAdvisor::RefitModel() {
  // Single GP over mapped-task data plus target observations (the paper's
  // "uses the matched data for target workload in a single GP model").
  std::vector<Observation> training;
  if (mapped_task_ >= 0) {
    const auto& mapped = tasks_[static_cast<size_t>(mapped_task_)].observations;
    // Subsample long histories to keep the O(n^3) fit bounded.
    const size_t cap = 100;
    const size_t stride = std::max<size_t>(1, mapped.size() / cap);
    for (size_t i = 0; i < mapped.size(); i += stride) {
      if (mapped[i].theta.size() == dim_) training.push_back(mapped[i]);
    }
  }
  training.insert(training.end(), history_.begin(), history_.end());
  return gp_->Fit(training);
}

Result<Vector> OtterTuneAdvisor::SuggestNextAsync(
    const SuggestionRequest& request) {
  RESTUNE_TRACE_SPAN("advisor.suggest");
  static obs::Counter* suggestions =
      obs::MetricsRegistry::Global()->GetCounter(
          "restune_advisor_suggestions_total{advisor=\"ottertune\"}");
  suggestions->Add();
  if (std::optional<Vector> design = step_.NextDesignPoint(request)) {
    return *std::move(design);
  }
  if (!gp_->fitted()) {
    return Status::FailedPrecondition("no observations yet; call Begin first");
  }
  const GpSurrogate surrogate(gp_.get());
  AcquisitionContext ctx;
  ctx.lambda_tps = sla_.min_tps;
  ctx.lambda_lat = sla_.max_lat;
  for (const Observation& obs : history_) {
    if (!sla_.IsFeasible(obs)) continue;
    if (!ctx.has_feasible || obs.res < ctx.best_feasible_res) {
      ctx.has_feasible = true;
      ctx.best_feasible_res = obs.res;
    }
  }
  return step_.Maximize(request, [&](const std::vector<Matrix>& blocks) {
    return ConstrainedExpectedImprovementBatch(surrogate, blocks, ctx,
                                               options_.acq_optimizer.pool);
  });
}

Status OtterTuneAdvisor::Observe(const Observation& observation) {
  RESTUNE_TRACE_SPAN("advisor.observe");
  history_.push_back(observation);
  if (mapped_task_ < 0 || ++observations_since_remap_ >= options_.remap_period) {
    RESTUNE_RETURN_IF_ERROR(Remap());
    observations_since_remap_ = 0;
  }
  return RefitModel();
}

}  // namespace restune
