#ifndef RESTUNE_BO_SURROGATE_H_
#define RESTUNE_BO_SURROGATE_H_

#include "gp/multi_output_gp.h"
#include "gp/observation.h"

namespace restune {

/// Abstract predictive model over (res, tps, lat) that the acquisition
/// functions consume. Implemented by `GpSurrogate` over a `MultiOutputGp`
/// (plain CBO) and by `MetaLearner` (the ensemble of base-learners,
/// Section 6.3) — so the same CEI machinery drives both ResTune and
/// ResTune-w/o-ML.
///
/// Predictions must be thread-safe under concurrent const access: the
/// batch acquisitions score (block, metric) tasks from pool workers.
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Posterior for one metric at every row of `thetas` (normalized
  /// configurations). GP-backed implementations use the batch inference
  /// path (one cross-covariance block + blocked solves), which is what
  /// makes the CEI candidate sweep cheap. The batch acquisitions call it
  /// once per (block, metric) task of their pool loop, where its own loops
  /// on `pool` (null = shared pool) run inline; called at top level it may
  /// fan out over `pool`. Results must be bitwise identical for any pool
  /// size, and cutting `thetas` into blocks at multiples of 64 rows
  /// (`kAcquisitionBlockRows`) must not change a bit.
  virtual std::vector<GpPrediction> PredictMetricBatch(
      MetricKind kind, const Matrix& thetas,
      ThreadPool* pool = nullptr) const = 0;
};

/// Adapts a `MultiOutputGp` to the `Surrogate` interface.
class GpSurrogate : public Surrogate {
 public:
  explicit GpSurrogate(const MultiOutputGp* gp) : gp_(gp) {}

  std::vector<GpPrediction> PredictMetricBatch(
      MetricKind kind, const Matrix& thetas,
      ThreadPool* pool = nullptr) const override {
    return gp_->PredictBatch(kind, thetas, pool);
  }

 private:
  const MultiOutputGp* gp_;
};

}  // namespace restune

#endif  // RESTUNE_BO_SURROGATE_H_
