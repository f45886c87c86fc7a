#ifndef RESTUNE_GP_GP_MODEL_H_
#define RESTUNE_GP_GP_MODEL_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "gp/kernel.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace restune {

class ThreadPool;

/// Posterior prediction at a single point.
struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;
  double stddev() const;
};

/// Options controlling GP fitting.
struct GpOptions {
  /// Observation noise variance added to the kernel diagonal (in normalized
  /// target units when `normalize_y` is set).
  double noise_variance = 1e-3;
  /// Standardize targets internally to zero mean / unit variance. The meta-
  /// learning code disables this and standardizes per task itself
  /// (scale unification, paper Section 6.1).
  bool normalize_y = true;
  /// Maximize the log marginal likelihood over kernel hyper-parameters.
  bool optimize_hyperparams = true;
  /// Refit hyper-parameters only every k-th `Update` call (1 = every call).
  /// Amortizes the O(n^3)-per-evaluation likelihood search across the tuning
  /// loop, where consecutive fits barely move the optimum.
  int refit_period = 5;
  /// Nelder-Mead budget per hyper-parameter search.
  int hyperopt_max_iters = 40;
  /// Extra random restarts for the hyper-parameter search.
  int hyperopt_restarts = 1;
  uint64_t seed = 42;
};

/// Gaussian-process regression with a Matérn/SE kernel, used as the
/// surrogate for resource, throughput and latency response surfaces.
///
/// The model keeps its Cholesky factor and weight vector `alpha = K^-1 y`
/// cached, so posterior means cost O(n·d) and variances O(n^2) per query.
class GpModel {
 public:
  /// Builds an unfitted model over `dim`-dimensional inputs with a
  /// Matérn-5/2 ARD kernel.
  explicit GpModel(size_t dim, GpOptions options = {});

  /// Builds an unfitted model with a caller-supplied kernel.
  GpModel(std::unique_ptr<Kernel> kernel, GpOptions options);

  GpModel(const GpModel& other);
  GpModel& operator=(const GpModel& other);
  GpModel(GpModel&&) = default;
  GpModel& operator=(GpModel&&) = default;

  /// Replaces the training set and refits (including hyper-parameters when
  /// enabled). `x` rows are configurations, `y` the observed metric.
  Status Fit(const Matrix& x, const Vector& y);

  /// Appends one observation and refits; hyper-parameters are re-optimized
  /// only every `refit_period` updates.
  Status Update(const Vector& x, double y);

  /// Restores a fitted state from a previously computed Cholesky factor of
  /// K(x, x) + noise I (+ the factor's recorded jitter), skipping both the
  /// O(n^2 d) Gram assembly and the O(n^3) decomposition — only the O(n^2)
  /// weight solve runs. The caller must have set the kernel hyper-
  /// parameters that produced `factor` (SetLogParams before this call);
  /// hyper-parameter optimization is marked done, matching the frozen
  /// base-learner lifecycle this path exists for. The factor is trusted —
  /// serialized factors are checksummed upstream (gp_serialization).
  Status FitWithFactor(const Matrix& x, const Vector& y, Cholesky factor);

  bool fitted() const { return chol_.has_value(); }
  size_t num_observations() const { return x_.rows(); }
  size_t dim() const { return kernel_->dim(); }

  /// Posterior mean and variance at `x`, in original target units.
  GpPrediction Predict(const Vector& x) const;

  /// Posterior mean only — the O(n·d) fast path used by ensemble members,
  /// whose variances the meta-learner discards (paper Eq. 7).
  double PredictMean(const Vector& x) const;

  /// Posterior at every row of `x` in one shot: the cross-covariance
  /// against the training set is assembled as a single n×m block and the
  /// variance solves run as blocked triangular solves, so the kernel
  /// matrix streams through cache once per candidate stripe instead of
  /// once per candidate. Work is distributed over `pool` (null = shared
  /// pool). Results are bitwise identical for any pool size; they agree
  /// with per-point `Predict` to rounding error (the blocked solve scales
  /// by a reciprocal where the scalar solve divides; narrow blocks of at
  /// most four candidates share `Predict`'s exact arithmetic).
  std::vector<GpPrediction> PredictBatch(const Matrix& x,
                                         ThreadPool* pool = nullptr) const;

  /// Batch counterpart of `PredictMean`: means at every row of `x` from
  /// one fused kernel pass per query stripe (`Kernel::WeightedCrossSum`
  /// against alpha), with no cross-covariance block. Bitwise identical for
  /// any pool size.
  ///
  /// Both batch calls recognise a coordinate stencil, the row order of the
  /// optimizer's refinement (2·dim rows; rows 2k and 2k+1 equal one centre
  /// bit for bit except in column k), and fill its K* from shared distance
  /// work (`Kernel::EvalStencil`); the mean is then one `simd::Axpy` per
  /// training row. This call leaves stencils of at most eight rows (dim <=
  /// 4) to the fused pass, which is cheaper there. The results keep the
  /// general path's bits.
  Vector PredictMeanBatch(const Matrix& x, ThreadPool* pool = nullptr) const;

  /// Log marginal likelihood of the current fit.
  double LogMarginalLikelihood() const;

  /// Leave-one-out posterior for every training point, via the standard
  /// K^-1-based identities (no refitting, kernel hyper-parameters fixed) —
  /// exactly the paper's target-base-learner evaluation (Section 6.4.2).
  std::vector<GpPrediction> LeaveOneOutPredictions() const;

  const Matrix& train_x() const { return x_; }
  /// Training targets in original units.
  Vector train_y() const;

  /// The cached Cholesky factor of K + noise I (+ jitter). Requires
  /// `fitted()`. This is what serialization persists so that loading can
  /// go through `FitWithFactor` instead of refactorizing.
  const Cholesky& factor() const;

  const Kernel& kernel() const { return *kernel_; }
  const GpOptions& options() const { return options_; }

 private:
  /// K* (n x m) between the training rows and the query rows `x` when `x`
  /// is a coordinate stencil (the row order of the optimizer's
  /// refinement), filled by Kernel::EvalStencil with the bits of
  /// Kernel::CrossCovarianceMatrix; nullopt for any other block.
  std::optional<Matrix> StencilCrossCovariance(const Matrix& x) const;

  Status Refit(bool optimize);
  Status Factorize();
  void OptimizeHyperparams();
  double NegativeLogMarginalLikelihoodFor(const Vector& log_params) const;

  std::unique_ptr<Kernel> kernel_;
  GpOptions options_;
  Rng rng_;

  Matrix x_;
  Vector y_norm_;  // normalized targets
  double y_mean_ = 0.0;
  double y_std_ = 1.0;

  std::optional<Cholesky> chol_;
  Vector alpha_;  // (K + noise I)^-1 y_norm
  int updates_since_refit_ = 0;
  bool hyperopt_done_ = false;
};

}  // namespace restune

#endif  // RESTUNE_GP_GP_MODEL_H_
