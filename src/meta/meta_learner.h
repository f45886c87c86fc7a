#ifndef RESTUNE_META_META_LEARNER_H_
#define RESTUNE_META_META_LEARNER_H_

#include <array>
#include <memory>
#include <vector>

#include "bo/surrogate.h"
#include "common/result.h"
#include "common/rng.h"
#include "gp/gp_model.h"
#include "meta/base_learner.h"

namespace restune {

/// Options for the meta-learner ensemble.
struct MetaLearnerOptions {
  /// Iterations that use static (meta-feature) weights before switching to
  /// dynamic (ranking-loss) weights — 10 in the paper's setting.
  int static_weight_iterations = 10;
  /// Epanechnikov bandwidth ρ of Eq. 8. 0.2 reproduces the static-weight
  /// decay of paper Table 5 (W4/W5 fall outside the kernel support).
  double bandwidth = 0.2;
  /// Posterior samples used to estimate P(learner has the lowest ranking
  /// loss) in the dynamic phase (Section 6.4.2). Values below 1 act as 1.
  int ranking_loss_samples = 30;
  /// Cap on the number of target observations entering the O(n²) pairwise
  /// ranking loss; beyond it a random subsample is used (keeps the
  /// per-iteration cost bounded on long tuning runs). 0 = no cap; a cap
  /// of 1 acts as 2, the fewest points that form a pair.
  int ranking_loss_max_points = 64;
  /// Eq. 7: variance comes from the target base-learner only. Setting this
  /// false uses the weight-averaged base variances instead (ablation).
  bool target_variance_only = true;
  /// Weight-dilution guard (RGPE v2): in each posterior sample a historical
  /// base-learner may only win the lowest-loss vote if it misranks fewer
  /// than half of the pairs — i.e. it beats random guessing. Prevents a
  /// crowd of useless learners from diluting the target's weight.
  bool prune_worse_than_random = true;
  /// Options for the target task's own GP (normalize_y is forced off; the
  /// meta-learner standardizes the target history itself).
  GpOptions target_gp;
  uint64_t seed = 99;
};

/// The meta-learner L_M (paper Section 6.3): a weighted ensemble over the
/// historical base-learners plus the target task's own GP.
///
///   μ_M(θ) = Σ g_i μ_i(θ) / Σ g_i          (Eq. 6)
///   σ²_M(θ) = σ²_{T+1}(θ)                  (Eq. 7)
///
/// Weights are static (meta-feature similarity, Eq. 8) for the first
/// iterations, then dynamic (probability of lowest ranking loss against the
/// target observations, Eq. 9, with leave-one-out for the target learner).
/// Implements `Surrogate`, so the same CEI acquisition machinery that runs
/// plain CBO runs the boosted tuner.
class MetaLearner : public Surrogate {
 public:
  MetaLearner(size_t dim, std::vector<BaseLearner> base_learners,
              Vector target_meta_feature, MetaLearnerOptions options = {});

  /// Ingests a raw target observation: re-standardizes the target history,
  /// refits the target GP, and recomputes the ensemble weights. Rejects
  /// non-finite inputs before any internal state changes.
  Status AddObservation(const Observation& raw_observation);

  /// Ingests an evaluation failure at θ as a hard SLA violation: the point
  /// enters the target GP's tps/lat constraint outputs with the penalized
  /// values (standardized with the real history's moments) but never the
  /// resource output, the ranking-loss machinery, or the standardizer
  /// itself. `penalty_tps`/`penalty_lat` are raw-unit values (typically 0
  /// and 2×λ_lat).
  Status AddFailure(const Vector& theta, double penalty_tps,
                    double penalty_lat);

  /// Ensemble posterior at one configuration, in standardized target-task
  /// units. `RescaledThreshold` and ResTune's incumbent use it.
  GpPrediction PredictMetric(MetricKind kind, const Vector& theta) const;

  /// Ensemble posterior for a whole candidate block: every member's means
  /// (and the target's variance) come from its GP batch-inference path, so
  /// a CEI sweep costs one blocked prediction per member instead of one
  /// per-point prediction per member per candidate. The members run one
  /// after another; the batch acquisitions call this once per (block,
  /// metric) task, so the block is the unit of parallel work.
  std::vector<GpPrediction> PredictMetricBatch(
      MetricKind kind, const Matrix& thetas,
      ThreadPool* pool = nullptr) const override;

  /// Re-scaled constraint threshold λ'_u = L_M(θ_default) (Section 6.1).
  double RescaledThreshold(MetricKind kind, const Vector& default_theta) const;

  /// True while static (meta-feature) weighting is in effect.
  bool in_static_phase() const;

  /// Current ensemble weights, normalized to sum to 1. Size is
  /// num_base_learners() + 1; the last entry is the target learner.
  const std::vector<double>& weights() const { return weights_; }

  /// Mean sampled ranking loss per historical base-learner, as a fraction
  /// of comparable pairs (paper Table 5's "Ranking Loss" row). Empty until
  /// the dynamic phase has data.
  std::vector<double> MeanRankingLossFractions() const;

  size_t num_base_learners() const { return bases_.size(); }
  size_t num_observations() const { return target_raw_.size(); }
  size_t num_failures() const { return failures_raw_.size(); }
  const std::vector<Observation>& target_observations() const {
    return target_raw_;
  }

 private:
  struct LearnerPrediction {
    std::array<GpPrediction, kNumMetricKinds> by_metric;
  };

  void RecomputeWeights();
  /// Mirrors weights_ into per-learner observability gauges.
  void PublishWeightGauges() const;
  std::vector<double> StaticWeights() const;
  std::vector<double> DynamicWeights();
  /// Sampled ranking losses; rows = samples, cols = learners (target last).
  std::vector<std::vector<double>> SampleRankingLosses();
  Status RefitTargetGp();

  size_t dim_;
  std::vector<BaseLearner> bases_;
  Vector target_meta_feature_;
  MetaLearnerOptions options_;
  mutable Rng rng_;

  std::vector<Observation> target_raw_;
  /// Penalized failure points (raw units): constraint-only evidence for the
  /// target GP, excluded from the standardizer and the ranking losses.
  std::vector<Observation> failures_raw_;
  MetricStandardizer target_standardizer_;
  std::unique_ptr<MultiOutputGp> target_gp_;

  std::vector<double> weights_;  // normalized, target last
  /// Whether the previous RecomputeWeights ran the static path — detects
  /// the static→dynamic switch for the phase-transition counter.
  bool was_static_phase_ = true;

  /// base_pred_cache_[i][j]: base learner i's posterior at target point j
  /// (standardized units of learner i). Grows incrementally with the target
  /// history so the dynamic-weight pass never re-predicts old points.
  std::vector<std::vector<LearnerPrediction>> base_pred_cache_;

  /// Mean sampled loss fractions from the last dynamic-weight pass.
  std::vector<double> last_loss_fractions_;
};

/// Epanechnikov quadratic kernel γ(t) = 3/4 (1 - t²) for t ≤ 1, else 0
/// (Eq. 8). Exposed for tests and for the Table 5 bench.
double EpanechnikovKernel(double t);

}  // namespace restune

#endif  // RESTUNE_META_META_LEARNER_H_
