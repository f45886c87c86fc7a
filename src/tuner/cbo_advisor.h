#ifndef RESTUNE_TUNER_CBO_ADVISOR_H_
#define RESTUNE_TUNER_CBO_ADVISOR_H_

#include <memory>
#include <vector>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "bo/approx_surrogate.h"
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
  /// Surrogate backend. `kExactGp` keeps the incremental multi-output GP
  /// (rank-one updates, amortized hyper-parameter refits). The approximate
  /// backends instead refit a `ScalableSurrogate` from the full history on
  /// demand: `kSubsetGp` caps model size at `surrogate_subset_size`,
  /// `kQuantileForest` drops the GP entirely — both keep suggest-time
  /// bounded as the history grows to the n=10k regime. Approximate
  /// backends learn about evaluation failures only through quarantine
  /// regions (the exact backend additionally feeds penalized points into
  /// its constraint models).
  SurrogateBackend surrogate_backend = SurrogateBackend::kExactGp;
  size_t surrogate_subset_size = 512;
  QuantileForestOptions surrogate_forest;
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
  /// The approximate surrogate; null under `kExactGp`, unfitted until the
  /// first post-observation suggestion otherwise.
  const ScalableSurrogate* approx_surrogate() const { return approx_.get(); }

 private:
  AcquisitionContext MakeContext() const;
  /// The surrogate a suggestion should score candidates with, refitting the
  /// approximate backend first when observations arrived since last time.
  Result<const Surrogate*> ActiveSurrogate();

  std::string name_;
  size_t dim_;
  CboAdvisorOptions options_;
  SuggestionStep step_;
  MultiOutputGp gp_;
  SlaConstraints sla_;
  std::vector<Observation> history_;
  GpSurrogate exact_surrogate_;
  std::unique_ptr<ScalableSurrogate> approx_;
  bool approx_dirty_ = false;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_CBO_ADVISOR_H_
