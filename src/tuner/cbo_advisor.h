#ifndef RESTUNE_TUNER_CBO_ADVISOR_H_
#define RESTUNE_TUNER_CBO_ADVISOR_H_

#include <string>
#include <vector>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "dbsim/knob.h"
#include "gp/multi_output_gp.h"
#include "tuner/advisor.h"
#include "tuner/quarantine.h"
#include "tuner/suggestion_step.h"

namespace restune {

/// Acquisition flavour of the plain-GP advisor.
enum class CboAcquisition {
  /// Constrained EI (paper Eq. 5) — this is ResTune-w/o-ML.
  kConstrainedEi,
  /// Plain EI on the resource objective, constraints ignored — the iTuned
  /// baseline after the paper's objective swap.
  kUnconstrainedEi,
  /// EI on resource + penalty * expected constraint violation (ablation).
  kPenalizedEi,
};

/// Options for `CboAdvisor`.
struct CboAdvisorOptions {
  CboAcquisition acquisition = CboAcquisition::kConstrainedEi;
  /// LHS bootstrap iterations before the GP drives the search (paper
  /// Section 7 uses 10 for the non-meta BO methods).
  int initial_lhs_samples = 10;
  double penalty = 10.0;  // for kPenalizedEi
  AcqOptimizerOptions acq_optimizer;
  GpOptions gp;
  uint64_t seed = 17;
  /// Knob-region quarantine around crashed/timed-out configurations.
  QuarantineOptions quarantine;
};

/// Constrained Bayesian optimization on a fresh multi-output GP: the
/// tuning core of ResTune without the meta-learning boost, and (with the
/// unconstrained acquisition) the iTuned baseline.
class CboAdvisor : public Advisor {
 public:
  CboAdvisor(std::string name, size_t dim, CboAdvisorOptions options = {});

  const std::string& name() const override { return name_; }
  Status Begin(const Observation& default_observation,
               const SlaConstraints& sla) override;
  Result<Vector> SuggestNextAsync(const SuggestionRequest& request) override;
  Status Observe(const Observation& observation) override;
  Status ObserveFailure(const Vector& theta,
                        const EvaluationFault& fault) override;

  const MultiOutputGp& surrogate() const { return gp_; }
  const KnobQuarantine& quarantine() const { return step_.quarantine(); }

 private:
  AcquisitionContext MakeContext() const;

  std::string name_;
  size_t dim_;
  CboAdvisorOptions options_;
  SuggestionStep step_;
  MultiOutputGp gp_;
  SlaConstraints sla_;
  std::vector<Observation> history_;
  GpSurrogate gp_surrogate_;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_CBO_ADVISOR_H_
