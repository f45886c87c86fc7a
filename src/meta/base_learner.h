#ifndef RESTUNE_META_BASE_LEARNER_H_
#define RESTUNE_META_BASE_LEARNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "gp/multi_output_gp.h"
#include "meta/standardizer.h"
#include "meta/task.h"

namespace restune {

/// Content fingerprint of a (task, GP options) training request: task name,
/// meta-feature and observation doubles hashed by bit pattern, plus every
/// option that affects the fitted model. Equal fingerprints mean training
/// would reproduce the same model bit for bit, which is what lets the
/// process-global cache (base_learner_cache.h) and serialized repository
/// learners stand in for a fresh fit.
std::string BaseLearnerFingerprint(const TuningTask& task,
                                   const GpOptions& options);

/// A historical base-learner: a multi-output GP fitted on one task's
/// *standardized* observations (scale unification, Section 6.1). Its
/// predictions are relative values — meaningful for ranking and for the
/// weighted ensemble mean, not as absolute metrics.
class BaseLearner {
 public:
  /// Trains a base-learner from a task's raw observation history.
  /// Hyper-parameters are optimized once here; the learner is immutable
  /// afterwards, which is what makes the repository cheap to reuse.
  /// Consults the process-global `BaseLearnerCache` first: a task already
  /// trained under the same fingerprint (this session or a repository
  /// load) is returned without refitting.
  static Result<BaseLearner> Train(const TuningTask& task,
                                   GpOptions gp_options = DefaultGpOptions());

  /// Reassembles a learner from already-built parts — the deserialization
  /// path (DataRepository loads the fitted GP, including cached Cholesky
  /// factors, so no training happens here).
  static BaseLearner FromParts(std::string name, Vector meta_feature,
                               MetricStandardizer standardizer,
                               std::shared_ptr<MultiOutputGp> gp,
                               std::string fingerprint);

  /// GP options suitable for one-shot base-learner training.
  static GpOptions DefaultGpOptions();

  /// Posterior in standardized units.
  GpPrediction Predict(MetricKind kind, const Vector& theta) const;

  /// Mean-only fast path (O(n·d)) — all the ensemble mean needs (Eq. 7
  /// discards base-learner variances).
  double PredictMean(MetricKind kind, const Vector& theta) const;

  /// Batch counterparts over the rows of `thetas`, via the GP batch
  /// inference path, distributed over `pool` (null = shared pool).
  std::vector<GpPrediction> PredictBatch(MetricKind kind, const Matrix& thetas,
                                         ThreadPool* pool = nullptr) const;
  Vector PredictMeanBatch(MetricKind kind, const Matrix& thetas,
                          ThreadPool* pool = nullptr) const;

  const std::string& name() const { return name_; }
  const Vector& meta_feature() const { return meta_feature_; }
  const MetricStandardizer& standardizer() const { return standardizer_; }
  /// Fingerprint of the training inputs (empty for learners built before
  /// fingerprinting, e.g. via the legacy FromParts-free paths).
  const std::string& fingerprint() const { return fingerprint_; }
  const MultiOutputGp& gp() const { return *gp_; }
  size_t num_observations() const { return gp_->num_observations(); }
  size_t dim() const { return gp_->dim(); }

 private:
  BaseLearner() = default;

  std::string name_;
  Vector meta_feature_;
  MetricStandardizer standardizer_;
  std::string fingerprint_;
  std::shared_ptr<MultiOutputGp> gp_;  // shared: learners are copied around
};

}  // namespace restune

#endif  // RESTUNE_META_BASE_LEARNER_H_
