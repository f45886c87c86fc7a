#ifndef RESTUNE_TUNER_CDBTUNE_ADVISOR_H_
#define RESTUNE_TUNER_CDBTUNE_ADVISOR_H_

#include <memory>

#include "rl/ddpg.h"
#include "tuner/advisor.h"

namespace restune {

/// Options for the CDBTune-w-Con baseline.
struct CdbTuneAdvisorOptions {
  DdpgOptions ddpg;
  uint64_t seed = 47;
};

/// CDBTune with constraints (paper Section 7 baseline): a DDPG agent whose
/// state is the DBMS internal-metric vector and whose action is the knob
/// configuration. The reward follows CDBTune's shape with the paper's two
/// modifications: latency is replaced by resource utilization, and the
/// reward is zeroed when (a) resource improves but the SLA is violated, or
/// (b) resource regresses but the SLA holds.
class CdbTuneAdvisor : public Advisor {
 public:
  CdbTuneAdvisor(size_t dim, CdbTuneAdvisorOptions options = {});

  const std::string& name() const override { return name_; }
  Status Begin(const Observation& default_observation,
               const SlaConstraints& sla) override;
  /// The actor's noisy action, clamped into the request's trust region so
  /// the replay memory holds the configuration actually evaluated.
  Result<Vector> SuggestNextAsync(const SuggestionRequest& request) override;
  Status Observe(const Observation& observation) override;

  /// The reward value computed for the most recent observation.
  double last_reward() const { return last_reward_; }

 private:
  Vector NormalizedState(const Observation& obs) const;
  double Reward(const Observation& obs) const;

  std::string name_ = "CDBTune-w-Con";
  size_t dim_;
  CdbTuneAdvisorOptions options_;
  std::unique_ptr<DdpgAgent> agent_;  // created at Begin (state dim known)
  SlaConstraints sla_;
  Observation initial_;
  Observation previous_;
  Vector previous_state_;
  Vector last_action_;
  bool has_previous_ = false;
  double last_reward_ = 0.0;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_CDBTUNE_ADVISOR_H_
