#ifndef RESTUNE_TUNER_OTTERTUNE_ADVISOR_H_
#define RESTUNE_TUNER_OTTERTUNE_ADVISOR_H_

#include <memory>
#include <vector>

#include "bo/acq_optimizer.h"
#include "gp/multi_output_gp.h"
#include "meta/task.h"
#include "tuner/advisor.h"
#include "tuner/suggestion_step.h"

namespace restune {

/// Options for the OtterTune-w-Con baseline.
struct OtterTuneAdvisorOptions {
  int initial_lhs_samples = 10;
  /// Re-run the workload mapping every k iterations.
  int remap_period = 5;
  AcqOptimizerOptions acq_optimizer;
  GpOptions gp;
  uint64_t seed = 41;
};

/// OtterTune with constraints (paper Section 7 baseline): maps the target
/// workload to the single most similar historical workload by Euclidean
/// distance between *internal metric* vectors, folds that workload's
/// observations into one GP together with the target observations, and
/// optimizes CEI on it.
///
/// The internal-metric distance is intentionally scale-dependent — this is
/// the mechanism behind OtterTune's hardware-adaptation failures that the
/// paper's ranking-based weighting fixes (Section 7.2.3).
class OtterTuneAdvisor : public Advisor {
 public:
  /// `repository_tasks` supply the mapped data; tasks lacking internal
  /// metrics in their observations are skipped during mapping.
  OtterTuneAdvisor(size_t dim, std::vector<TuningTask> repository_tasks,
                   OtterTuneAdvisorOptions options = {});

  const std::string& name() const override { return name_; }
  Status Begin(const Observation& default_observation,
               const SlaConstraints& sla) override;
  Result<Vector> SuggestNextAsync(const SuggestionRequest& request) override;
  Status Observe(const Observation& observation) override;

  /// Index of the currently mapped task, or -1 if none.
  int mapped_task() const { return mapped_task_; }

 private:
  Status Remap();
  Status RefitModel();

  std::string name_ = "OtterTune-w-Con";
  size_t dim_;
  std::vector<TuningTask> tasks_;
  OtterTuneAdvisorOptions options_;
  /// Never fed failures: the baseline has no quarantine.
  SuggestionStep step_;
  std::unique_ptr<MultiOutputGp> gp_;
  SlaConstraints sla_;
  std::vector<Observation> history_;
  int mapped_task_ = -1;
  int observations_since_remap_ = 0;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_OTTERTUNE_ADVISOR_H_
