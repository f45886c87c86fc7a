#include "gp/gp_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/contracts.h"
#include "common/nelder_mead.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "linalg/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

// Hyper-parameter search box in log space; keeps the likelihood surface away
// from degenerate kernels (zero or enormous lengthscales/amplitudes).
constexpr double kLogParamMin = -5.0;
constexpr double kLogParamMax = 4.0;

// Queries per lane group of the fused mean pass (Kernel::WeightedCrossSum).
// A stencil of at most this many rows (d <= 4) fits one group, and there
// the fused pass costs less than the stencil fill plus its K* and one Axpy
// per training row: 18% and 46% less at d = 3 and 4 with 30 training rows.
constexpr size_t kFusedGroupQueries = 8;

struct GpMetrics {
  obs::Counter* fits;
  obs::Counter* factor_extensions;
  obs::Counter* hyperopts;
  obs::Counter* predict_points;
  obs::Counter* stencil_blocks;

  static GpMetrics* Get() {
    static GpMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new GpMetrics();
      metrics->fits = registry->GetCounter("restune_gp_fits_total");
      metrics->factor_extensions =
          registry->GetCounter("restune_gp_factor_extensions_total");
      metrics->hyperopts = registry->GetCounter("restune_gp_hyperopts_total");
      metrics->predict_points =
          registry->GetCounter("restune_gp_predict_points_total");
      metrics->stencil_blocks =
          registry->GetCounter("restune_gp_stencil_blocks_total");
      return metrics;
    }();
    return m;
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True when `q` is a coordinate stencil as Kernel::EvalStencil takes it:
/// 2d rows of d >= 2 columns, rows 2k and 2k+1 equal to one centre bit for
/// bit in every column except k. The centre's column 0 is read from row 2,
/// every other column from row 0.
bool IsCoordinateStencil(const Matrix& q) {
  const size_t d = q.cols();
  if (d < 2 || q.rows() != 2 * d) return false;
  for (size_t r = 0; r < q.rows(); ++r) {
    for (size_t t = 0; t < d; ++t) {
      if (t != r / 2 && !SameBits(q(r, t), q(t == 0 ? 2 : 0, t))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

double GpPrediction::stddev() const {
  return std::sqrt(std::max(variance, 0.0));
}

GpModel::GpModel(size_t dim, GpOptions options)
    : GpModel(std::make_unique<Matern52Kernel>(dim), options) {}

GpModel::GpModel(std::unique_ptr<Kernel> kernel, GpOptions options)
    : kernel_(std::move(kernel)), options_(options), rng_(options.seed) {}

GpModel::GpModel(const GpModel& other)
    : kernel_(other.kernel_->Clone()),
      options_(other.options_),
      rng_(other.rng_),
      x_(other.x_),
      y_norm_(other.y_norm_),
      y_mean_(other.y_mean_),
      y_std_(other.y_std_),
      chol_(other.chol_),
      alpha_(other.alpha_),
      updates_since_refit_(other.updates_since_refit_),
      hyperopt_done_(other.hyperopt_done_) {}

GpModel& GpModel::operator=(const GpModel& other) {
  if (this == &other) return *this;
  kernel_ = other.kernel_->Clone();
  options_ = other.options_;
  rng_ = other.rng_;
  x_ = other.x_;
  y_norm_ = other.y_norm_;
  y_mean_ = other.y_mean_;
  y_std_ = other.y_std_;
  chol_ = other.chol_;
  alpha_ = other.alpha_;
  updates_since_refit_ = other.updates_since_refit_;
  hyperopt_done_ = other.hyperopt_done_;
  return *this;
}

Status GpModel::Fit(const Matrix& x, const Vector& y) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("x rows and y size differ");
  }
  if (x.rows() == 0) return Status::InvalidArgument("empty training set");
  if (x.cols() != kernel_->dim()) {
    return Status::InvalidArgument("x dimensionality does not match kernel");
  }
  // A single NaN/Inf reaching the Cholesky poisons the whole factor and
  // every later prediction, so corrupted inputs are rejected at the door.
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      if (!std::isfinite(x(r, c))) {
        return Status::InvalidArgument("non-finite input in training x");
      }
    }
    if (!std::isfinite(y[r])) {
      return Status::InvalidArgument("non-finite target in training y");
    }
  }
  x_ = x;
  if (options_.normalize_y) {
    y_mean_ = Mean(y);
    y_std_ = PopulationStdDev(y);
    if (y_std_ < 1e-12) y_std_ = 1.0;
  } else {
    y_mean_ = 0.0;
    y_std_ = 1.0;
  }
  y_norm_.resize(y.size());
  for (size_t i = 0; i < y.size(); ++i) y_norm_[i] = (y[i] - y_mean_) / y_std_;
  // Repeated full Fit calls (the meta-learner refits the target GP every
  // iteration) amortize hyper-parameter search the same way Update does.
  const bool optimize =
      options_.optimize_hyperparams &&
      (!hyperopt_done_ || options_.refit_period <= 1 ||
       ++updates_since_refit_ >= options_.refit_period);
  if (optimize) {
    updates_since_refit_ = 0;
    hyperopt_done_ = true;
  }
  return Refit(optimize);
}

Status GpModel::FitWithFactor(const Matrix& x, const Vector& y,
                              Cholesky factor) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("x rows and y size differ");
  }
  if (x.rows() == 0) return Status::InvalidArgument("empty training set");
  if (x.cols() != kernel_->dim()) {
    return Status::InvalidArgument("x dimensionality does not match kernel");
  }
  if (factor.size() != x.rows()) {
    return Status::InvalidArgument("factor size does not match training set");
  }
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      if (!std::isfinite(x(r, c))) {
        return Status::InvalidArgument("non-finite input in training x");
      }
    }
    if (!std::isfinite(y[r])) {
      return Status::InvalidArgument("non-finite target in training y");
    }
  }
  x_ = x;
  if (options_.normalize_y) {
    y_mean_ = Mean(y);
    y_std_ = PopulationStdDev(y);
    if (y_std_ < 1e-12) y_std_ = 1.0;
  } else {
    y_mean_ = 0.0;
    y_std_ = 1.0;
  }
  y_norm_.resize(y.size());
  for (size_t i = 0; i < y.size(); ++i) y_norm_[i] = (y[i] - y_mean_) / y_std_;
  chol_ = std::move(factor);
  alpha_ = chol_->Solve(y_norm_);
  // The restored model is frozen: its hyper-parameters came with the
  // factor, so a later Fit/Update must not redo the initial search.
  hyperopt_done_ = true;
  updates_since_refit_ = 0;
  return Status::OK();
}

Status GpModel::Update(const Vector& x, double y) {
  if (!fitted()) {
    Matrix xm(1, x.size());
    for (size_t c = 0; c < x.size(); ++c) xm(0, c) = x[c];
    return Fit(xm, {y});
  }
  if (x.size() != kernel_->dim()) {
    return Status::InvalidArgument("x dimensionality does not match kernel");
  }
  for (double v : x) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("non-finite input in update x");
    }
  }
  if (!std::isfinite(y)) {
    return Status::InvalidArgument("non-finite target in update y");
  }
  ++updates_since_refit_;
  // A full refactorization happens every refit_period updates even when
  // hyper-parameter optimization is off: the O(n^2) factor extensions
  // accumulate rounding error round over round, so an incrementally grown
  // factor must not live forever.
  const bool refit_due = options_.refit_period <= 1 ||
                         updates_since_refit_ >= options_.refit_period;
  const bool optimize = options_.optimize_hyperparams && refit_due;

  // On non-refit iterations the kernel matrix only gains one row/column
  // (it depends on x and hyper-parameters, not on target normalization),
  // so the Cholesky factor is extended in O(n^2) instead of refactorized
  // in O(n^3). Must happen before x_ grows; a non-PD extension falls back
  // to the full path below. The new pivot carries the jitter baked into
  // the cached factor so the extended row and the old block factorize the
  // same matrix, K + (noise + jitter) I.
  bool factor_extended = false;
  if (!refit_due && chol_.has_value() && chol_->size() == x_.rows()) {
    const Vector k_new = kernel_->CrossCovariance(x_, x);
    const double k_ss =
        kernel_->Eval(x, x) + options_.noise_variance + chol_->jitter();
    factor_extended = chol_->RankOneUpdate(k_new, k_ss).ok();
  }

  // Rebuild the raw target list, append, and refit. Normalization constants
  // are recomputed so the normalized targets stay well scaled as the
  // observation range expands during tuning.
  Vector y_raw = train_y();
  y_raw.push_back(y);
  Matrix x_new(x_.rows() + 1, x_.cols());
  for (size_t r = 0; r < x_.rows(); ++r) {
    for (size_t c = 0; c < x_.cols(); ++c) x_new(r, c) = x_(r, c);
  }
  for (size_t c = 0; c < x.size(); ++c) x_new(x_.rows(), c) = x[c];

  x_ = std::move(x_new);
  if (options_.normalize_y) {
    y_mean_ = Mean(y_raw);
    y_std_ = PopulationStdDev(y_raw);
    if (y_std_ < 1e-12) y_std_ = 1.0;
  }
  y_norm_.resize(y_raw.size());
  for (size_t i = 0; i < y_raw.size(); ++i) {
    y_norm_[i] = (y_raw[i] - y_mean_) / y_std_;
  }
  if (refit_due) {
    updates_since_refit_ = 0;
    if (optimize) hyperopt_done_ = true;
  }
  if (factor_extended) {
    // Targets changed (normalization shifts every entry) but K did not:
    // only the O(n^2) weight solve is redone.
    GpMetrics::Get()->factor_extensions->Add();
    alpha_ = chol_->Solve(y_norm_);
    return Status::OK();
  }
  return Refit(optimize);
}

Status GpModel::Refit(bool optimize) {
  RESTUNE_TRACE_SPAN("gp.fit");
  GpMetrics::Get()->fits->Add();
  if (optimize && x_.rows() >= 3) OptimizeHyperparams();
  return Factorize();
}

Status GpModel::Factorize() {
  Matrix k = kernel_->GramMatrix(x_);
  k.AddToDiagonal(options_.noise_variance);
  Result<Cholesky> chol = Cholesky::FactorWithJitter(std::move(k));
  if (!chol.ok()) return chol.status();
  chol_ = std::move(chol).value();
  alpha_ = chol_->Solve(y_norm_);
  return Status::OK();
}

double GpModel::NegativeLogMarginalLikelihoodFor(
    const Vector& log_params) const {
  for (double p : log_params) {
    if (p < kLogParamMin || p > kLogParamMax || !std::isfinite(p)) {
      return 1e12;  // reject points outside the search box
    }
  }
  std::unique_ptr<Kernel> trial = kernel_->Clone();
  trial->SetLogParams(log_params);
  Matrix k = trial->GramMatrix(x_);
  k.AddToDiagonal(options_.noise_variance);
  Result<Cholesky> chol = Cholesky::FactorWithJitter(std::move(k));
  if (!chol.ok()) return 1e12;
  const Vector alpha = chol->Solve(y_norm_);
  const double fit_term = 0.5 * Dot(y_norm_, alpha);
  const double complexity_term = 0.5 * chol->LogDeterminant();
  const double n = static_cast<double>(x_.rows());
  return fit_term + complexity_term + 0.5 * n * std::log(2.0 * M_PI);
}

void GpModel::OptimizeHyperparams() {
  RESTUNE_TRACE_SPAN("gp.hyperopt");
  GpMetrics::Get()->hyperopts->Add();
  auto objective = [this](const std::vector<double>& p) {
    return NegativeLogMarginalLikelihoodFor(p);
  };
  NelderMeadOptions nm;
  nm.max_iterations = options_.hyperopt_max_iters;

  Vector best = kernel_->GetLogParams();
  double best_value = NegativeLogMarginalLikelihoodFor(best);

  // Warm start from the current parameters, then random restarts.
  std::vector<Vector> starts = {best};
  for (int r = 0; r < options_.hyperopt_restarts; ++r) {
    Vector s(best.size());
    s[0] = rng_.Uniform(-1.0, 1.0);  // log amplitude^2
    for (size_t i = 1; i < s.size(); ++i) {
      s[i] = rng_.Uniform(std::log(0.1), std::log(2.0));  // log lengthscale
    }
    starts.push_back(std::move(s));
  }
  // Restarts are independent searches; run them on the pool and reduce in
  // start order so the winner matches the serial sweep exactly.
  std::vector<NelderMeadResult> results(starts.size());
  ThreadPool::Shared()->ParallelFor(starts.size(), [&](size_t i) {
    results[i] = NelderMeadMinimize(objective, starts[i], nm);
  });
  for (const NelderMeadResult& result : results) {
    if (result.value < best_value) {
      best_value = result.value;
      best = result.x;
    }
  }
  kernel_->SetLogParams(best);
}

GpPrediction GpModel::Predict(const Vector& x) const {
  RESTUNE_CHECK(fitted()) << "Predict called on an unfitted GP; call Fit() "
                             "or Update() with at least one observation first";
  RESTUNE_DCHECK(x.size() == kernel_->dim())
      << "query dim " << x.size() << " != kernel dim " << kernel_->dim();
  const Vector k_star = kernel_->CrossCovariance(x_, x);
  const double mean_norm = Dot(k_star, alpha_);
  const Vector v = chol_->SolveLower(k_star);
  double var_norm = kernel_->Eval(x, x) + options_.noise_variance - Dot(v, v);
  // max(NaN, eps) is NaN, so the clamp below cannot catch a poisoned
  // variance — the finiteness contract has to hold before clamping.
  RESTUNE_DCHECK_FINITE(var_norm);
  var_norm = std::max(var_norm, 1e-12);
  return {mean_norm * y_std_ + y_mean_, var_norm * y_std_ * y_std_};
}

double GpModel::PredictMean(const Vector& x) const {
  RESTUNE_CHECK(fitted()) << "PredictMean called on an unfitted GP";
  RESTUNE_DCHECK(x.size() == kernel_->dim())
      << "query dim " << x.size() << " != kernel dim " << kernel_->dim();
  const Vector k_star = kernel_->CrossCovariance(x_, x);
  return Dot(k_star, alpha_) * y_std_ + y_mean_;
}

std::vector<GpPrediction> GpModel::PredictBatch(const Matrix& x,
                                                ThreadPool* pool) const {
  RESTUNE_CHECK(fitted()) << "PredictBatch called on an unfitted GP";
  RESTUNE_CHECK(x.cols() == kernel_->dim())
      << "query dim " << x.cols() << " != kernel dim " << kernel_->dim();
  const size_t m = x.rows();
  std::vector<GpPrediction> out(m);
  if (m == 0) return out;
  GpMetrics::Get()->predict_points->Add(static_cast<int64_t>(m));
  ThreadPool* tp = ResolvePool(pool);
  const size_t n = x_.rows();
  // K* and its solve, both n x m.
  std::optional<Matrix> stencil_k_star = StencilCrossCovariance(x);
  const Matrix k_star = stencil_k_star
                            ? std::move(*stencil_k_star)
                            : kernel_->CrossCovarianceMatrix(x_, x, tp);
  const Matrix v = chol_->SolveLowerMatrix(k_star, tp);
  // Column-striped accumulation: each stripe owns its slice of the mean and
  // squared-solve-norm accumulators, so any pool size yields the same sums.
  Vector mean(m, 0.0);
  Vector v_sq(m, 0.0);
  tp->ParallelForRanges(m, [&](size_t c0, size_t c1) {
    for (size_t i = 0; i < n; ++i) {
      simd::Axpy(mean.data() + c0, alpha_[i], k_star.RowPtr(i) + c0, c1 - c0);
      simd::SquareAccum(v_sq.data() + c0, v.RowPtr(i) + c0, c1 - c0);
    }
    for (size_t c = c0; c < c1; ++c) {
      const double prior = kernel_->Eval(x.RowPtr(c), x.RowPtr(c));
      double var_norm = prior + options_.noise_variance - v_sq[c];
      RESTUNE_DCHECK_FINITE(var_norm);
      var_norm = std::max(var_norm, 1e-12);
      out[c] = {mean[c] * y_std_ + y_mean_, var_norm * y_std_ * y_std_};
    }
  });
  return out;
}

Vector GpModel::PredictMeanBatch(const Matrix& x, ThreadPool* pool) const {
  RESTUNE_CHECK(fitted()) << "PredictMeanBatch called on an unfitted GP";
  RESTUNE_CHECK(x.cols() == kernel_->dim())
      << "query dim " << x.cols() << " != kernel dim " << kernel_->dim();
  const size_t m = x.rows();
  Vector mean(m, 0.0);
  if (m == 0) return mean;
  GpMetrics::Get()->predict_points->Add(static_cast<int64_t>(m));
  ThreadPool* tp = ResolvePool(pool);
  // A coordinate stencil wider than one fused group gets its K* block and
  // one Axpy per training row, the bits the fused pass keeps, from a fill
  // that shares the stencil's distance work. Any other block is transposed
  // to dimension-major queries (d x m) for the fused pass, which runs its
  // SIMD lanes across queries and forms no n x m cross-covariance block.
  const std::optional<Matrix> k_star =
      m > kFusedGroupQueries ? StencilCrossCovariance(x) : std::nullopt;
  const Matrix queries_t = k_star ? Matrix() : x.Transpose();
  const auto columns = [&](size_t c0, size_t c1) {
    if (k_star) {
      for (size_t i = 0; i < x_.rows(); ++i) {
        simd::Axpy(mean.data() + c0, alpha_[i], k_star->RowPtr(i) + c0,
                   c1 - c0);
      }
    } else {
      kernel_->WeightedCrossSum(x_, alpha_.data(), queries_t.RowPtr(0) + c0,
                                m, c1 - c0, mean.data() + c0);
    }
    for (size_t c = c0; c < c1; ++c) mean[c] = mean[c] * y_std_ + y_mean_;
  };
  // One reference captured, so the std::function holds it without a heap
  // allocation.
  tp->ParallelForRanges(m,
                        [&columns](size_t c0, size_t c1) { columns(c0, c1); });
  return mean;
}

std::optional<Matrix> GpModel::StencilCrossCovariance(const Matrix& x) const {
  if (!IsCoordinateStencil(x)) return std::nullopt;
  GpMetrics::Get()->stencil_blocks->Add();
  // One fill on the calling thread: 2·d query rows are too little work to
  // split over the pool, whose range grain counts rows, not pairs.
  Matrix k_star(x_.rows(), x.rows());
  kernel_->EvalStencil(x_.RowPtr(0), x_.cols(), x_.rows(), x.RowPtr(0),
                       x.cols(), k_star.RowPtr(0), x.rows());
  return k_star;
}

double GpModel::LogMarginalLikelihood() const {
  RESTUNE_CHECK(fitted()) << "LogMarginalLikelihood needs a fitted GP";
  const double fit_term = 0.5 * Dot(y_norm_, alpha_);
  const double complexity_term = 0.5 * chol_->LogDeterminant();
  const double n = static_cast<double>(x_.rows());
  return -(fit_term + complexity_term + 0.5 * n * std::log(2.0 * M_PI));
}

std::vector<GpPrediction> GpModel::LeaveOneOutPredictions() const {
  RESTUNE_CHECK(fitted()) << "LeaveOneOutPredictions needs a fitted GP";
  // Sundararajan & Keerthi identities: with K_inv = (K + noise I)^-1,
  //   mu_-i  = y_i - alpha_i / K_inv_ii
  //   var_-i = 1 / K_inv_ii
  // Only the diagonal of K_inv enters, so it comes from triangular solves
  // against the cached factor instead of the full O(n^3) inverse.
  const Vector k_inv_diag = chol_->InverseDiagonal();
  std::vector<GpPrediction> out(x_.rows());
  for (size_t i = 0; i < x_.rows(); ++i) {
    const double kii = std::max(k_inv_diag[i], 1e-12);
    const double mean_norm = y_norm_[i] - alpha_[i] / kii;
    const double var_norm = 1.0 / kii;
    out[i] = {mean_norm * y_std_ + y_mean_, var_norm * y_std_ * y_std_};
  }
  return out;
}

Vector GpModel::train_y() const {
  Vector out(y_norm_.size());
  for (size_t i = 0; i < y_norm_.size(); ++i) {
    out[i] = y_norm_[i] * y_std_ + y_mean_;
  }
  return out;
}

const Cholesky& GpModel::factor() const {
  RESTUNE_CHECK(chol_.has_value()) << "factor() requires a fitted model";
  return *chol_;
}

}  // namespace restune
