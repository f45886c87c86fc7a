#include "tuner/cdbtune_advisor.h"

#include <cmath>

#include "obs/trace.h"

namespace restune {

CdbTuneAdvisor::CdbTuneAdvisor(size_t dim, CdbTuneAdvisorOptions options)
    : dim_(dim), options_(options) {}

Vector CdbTuneAdvisor::NormalizedState(const Observation& obs) const {
  // Normalize internal metrics by the default-config values so state
  // components are O(1) regardless of instance size.
  Vector state(initial_.internals.size(), 0.0);
  for (size_t i = 0; i < state.size(); ++i) {
    const double base = std::fabs(initial_.internals[i]) > 1e-9
                            ? std::fabs(initial_.internals[i])
                            : 1.0;
    const double v = i < obs.internals.size() ? obs.internals[i] : 0.0;
    state[i] = std::tanh(v / base - 1.0);  // squash outliers
  }
  return state;
}

double CdbTuneAdvisor::Reward(const Observation& obs) const {
  // CDBTune reward with resource substituted for latency (lower is better).
  const double d0 = (initial_.res - obs.res) / std::max(initial_.res, 1e-9);
  const double dp =
      (previous_.res - obs.res) / std::max(previous_.res, 1e-9);
  double r;
  if (d0 > 0) {
    r = (std::pow(1.0 + d0, 2.0) - 1.0) * std::fabs(1.0 + dp);
  } else {
    r = -(std::pow(1.0 - d0, 2.0) - 1.0) * std::fabs(1.0 - dp);
  }
  const bool sla_ok = sla_.IsFeasible(obs);
  if (r > 0 && !sla_ok) return 0.0;  // better resource but SLA broken
  if (r < 0 && sla_ok) return 0.0;   // worse resource but SLA still held
  return r;
}

Status CdbTuneAdvisor::Begin(const Observation& default_observation,
                             const SlaConstraints& sla) {
  if (default_observation.internals.empty()) {
    return Status::InvalidArgument(
        "CDBTune needs internal metrics in observations");
  }
  sla_ = sla;
  initial_ = default_observation;
  previous_ = default_observation;
  previous_state_ = NormalizedState(default_observation);
  DdpgOptions ddpg = options_.ddpg;
  ddpg.seed = options_.seed;
  agent_ = std::make_unique<DdpgAgent>(previous_state_.size(), dim_, ddpg);
  has_previous_ = true;
  return Status::OK();
}

Result<Vector> CdbTuneAdvisor::SuggestNextAsync(
    const SuggestionRequest& request) {
  RESTUNE_TRACE_SPAN("advisor.suggest");
  if (!agent_) {
    return Status::FailedPrecondition("call Begin first");
  }
  last_action_ = request.Clamp(agent_->ActWithNoise(previous_state_));
  return last_action_;
}

Status CdbTuneAdvisor::Observe(const Observation& observation) {
  RESTUNE_TRACE_SPAN("advisor.observe");
  if (!agent_ || last_action_.empty()) {
    return Status::FailedPrecondition("Observe without a pending suggestion");
  }
  last_reward_ = Reward(observation);
  const Vector next_state = NormalizedState(observation);
  agent_->Observe({previous_state_, last_action_, last_reward_, next_state});
  previous_state_ = next_state;
  previous_ = observation;
  return Status::OK();
}

}  // namespace restune
