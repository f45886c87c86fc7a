#ifndef RESTUNE_BO_SURROGATE_H_
#define RESTUNE_BO_SURROGATE_H_

#include "gp/multi_output_gp.h"
#include "gp/observation.h"

namespace restune {

/// Abstract predictive model over (res, tps, lat) that the acquisition
/// functions consume. Implemented by `MultiOutputGp` (plain CBO) and by
/// `MetaLearner` (the ensemble of base-learners, Section 6.3) — so the
/// same CEI machinery drives both ResTune and ResTune-w/o-ML.
///
/// Predictions must be thread-safe under concurrent const access: the
/// acquisition optimizer evaluates candidates from pool workers.
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Posterior prediction for one metric at the normalized configuration.
  virtual GpPrediction PredictMetric(MetricKind kind,
                                     const Vector& theta) const = 0;

  /// Posterior for one metric at every row of `thetas`. The default loops
  /// over `PredictMetric`; GP-backed implementations override it with the
  /// batch inference path (one cross-covariance block + blocked solves),
  /// which is what makes the CEI candidate sweep cheap. The batch
  /// acquisitions call it once per (block, metric) task of their pool loop,
  /// where its own loops on `pool` (null = shared pool) run inline; called
  /// at top level it may fan out over `pool`. Results must be bitwise
  /// identical for any pool size, and cutting `thetas` into blocks at
  /// multiples of 64 rows (`kAcquisitionBlockRows`) must not change a bit.
  virtual std::vector<GpPrediction> PredictMetricBatch(
      MetricKind kind, const Matrix& thetas,
      ThreadPool* pool = nullptr) const {
    (void)pool;  // The serial fallback has nothing to distribute.
    std::vector<GpPrediction> out(thetas.rows());
    for (size_t r = 0; r < thetas.rows(); ++r) {
      out[r] = PredictMetric(kind, thetas.Row(r));
    }
    return out;
  }

  virtual size_t dim() const = 0;
};

/// Adapts a `MultiOutputGp` to the `Surrogate` interface.
class GpSurrogate : public Surrogate {
 public:
  explicit GpSurrogate(const MultiOutputGp* gp) : gp_(gp) {}

  GpPrediction PredictMetric(MetricKind kind,
                             const Vector& theta) const override {
    return gp_->Predict(kind, theta);
  }
  std::vector<GpPrediction> PredictMetricBatch(
      MetricKind kind, const Matrix& thetas,
      ThreadPool* pool = nullptr) const override {
    return gp_->PredictBatch(kind, thetas, pool);
  }
  size_t dim() const override { return gp_->dim(); }

 private:
  const MultiOutputGp* gp_;
};

}  // namespace restune

#endif  // RESTUNE_BO_SURROGATE_H_
