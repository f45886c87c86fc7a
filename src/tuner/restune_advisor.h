#ifndef RESTUNE_TUNER_RESTUNE_ADVISOR_H_
#define RESTUNE_TUNER_RESTUNE_ADVISOR_H_

#include <memory>
#include <vector>

#include "bo/acq_optimizer.h"
#include "meta/meta_learner.h"
#include "tuner/advisor.h"
#include "tuner/quarantine.h"
#include "tuner/suggestion_step.h"

namespace restune {

/// Options for the full ResTune advisor.
struct ResTuneAdvisorOptions {
  MetaLearnerOptions meta;
  AcqOptimizerOptions acq_optimizer;
  /// When false, the first `meta.static_weight_iterations` configurations
  /// come from LHS instead of the meta-feature-weighted ensemble — the
  /// ResTune-w/o-Workload ablation of paper Fig. 6(b).
  bool workload_characterization_init = true;
  uint64_t seed = 23;
  /// Knob-region quarantine around crashed/timed-out configurations.
  QuarantineOptions quarantine;
};

/// The full ResTune tuner: constrained BO (Section 5) on the meta-learner
/// surrogate (Section 6) with the adaptive static→dynamic weight schedule
/// (Section 6.4.3) and scale-unified constraints (Section 6.1).
class ResTuneAdvisor : public Advisor {
 public:
  /// `default_theta` is the DBA default configuration (where the re-scaled
  /// constraint thresholds λ' are evaluated each iteration).
  ResTuneAdvisor(size_t dim, Vector default_theta,
                 std::vector<BaseLearner> base_learners,
                 Vector target_meta_feature,
                 ResTuneAdvisorOptions options = {});

  const std::string& name() const override { return name_; }
  Status Begin(const Observation& default_observation,
               const SlaConstraints& sla) override;
  Result<Vector> SuggestNextAsync(const SuggestionRequest& request) override;
  Status Observe(const Observation& observation) override;
  Status ObserveFailure(const Vector& theta,
                        const EvaluationFault& fault) override;

  const MetaLearner& meta_learner() const { return *meta_learner_; }
  const KnobQuarantine& quarantine() const { return step_.quarantine(); }

 private:
  std::string name_ = "ResTune";
  size_t dim_;
  Vector default_theta_;
  ResTuneAdvisorOptions options_;
  SuggestionStep step_;
  std::unique_ptr<MetaLearner> meta_learner_;
  SlaConstraints sla_;
  std::vector<Observation> history_;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_RESTUNE_ADVISOR_H_
