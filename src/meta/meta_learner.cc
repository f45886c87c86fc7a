#include "meta/meta_learner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/contracts.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

struct MetaMetrics {
  obs::Counter* observations;
  obs::Counter* failures;
  obs::Counter* weight_recomputes;
  obs::Counter* dynamic_switches;
  obs::Gauge* base_learners;
  obs::Gauge* target_weight;

  static MetaMetrics* Get() {
    static MetaMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new MetaMetrics();
      metrics->observations =
          registry->GetCounter("restune_meta_observations_total");
      metrics->failures = registry->GetCounter("restune_meta_failures_total");
      metrics->weight_recomputes =
          registry->GetCounter("restune_meta_weight_recomputes_total");
      metrics->dynamic_switches =
          registry->GetCounter("restune_meta_dynamic_switches_total");
      metrics->base_learners = registry->GetGauge("restune_meta_base_learners");
      metrics->target_weight =
          registry->GetGauge("restune_meta_weight{learner=\"target\"}");
      return metrics;
    }();
    return m;
  }
};

/// Per-base-learner weight gauges, created lazily per ensemble position.
/// Position (not name) keys the gauge so the cardinality is bounded by the
/// ensemble size regardless of repository contents.
obs::Gauge* BaseWeightGauge(size_t index) {
  return obs::MetricsRegistry::Global()->GetGauge(
      "restune_meta_weight{learner=\"base" + std::to_string(index) + "\"}");
}

}  // namespace

double EpanechnikovKernel(double t) {
  if (t > 1.0 || t < -1.0) return 0.0;
  return 0.75 * (1.0 - t * t);
}

MetaLearner::MetaLearner(size_t dim, std::vector<BaseLearner> base_learners,
                         Vector target_meta_feature, MetaLearnerOptions options)
    : dim_(dim),
      target_meta_feature_(std::move(target_meta_feature)),
      options_(options),
      rng_(options.seed) {
  // Graceful degradation: a corrupt repository entry (wrong knob dimension,
  // no training data) costs that one base-learner, not the session. The
  // ensemble math below assumes every member predicts in the target's knob
  // space, so incompatible members must not enter at all.
  bases_.reserve(base_learners.size());
  for (BaseLearner& base : base_learners) {
    if (base.dim() != dim_) {
      RESTUNE_LOG(kWarning) << "dropping base-learner '" << base.name()
                            << "': knob dim " << base.dim()
                            << " != target dim " << dim_;
      continue;
    }
    if (base.num_observations() == 0) {
      RESTUNE_LOG(kWarning) << "dropping base-learner '" << base.name()
                            << "': no training observations";
      continue;
    }
    bases_.push_back(std::move(base));
  }
  base_pred_cache_.resize(bases_.size());
  MetaMetrics::Get()->base_learners->Set(static_cast<double>(bases_.size()));
  GpOptions target_options = options_.target_gp;
  target_options.normalize_y = false;  // we standardize the history ourselves
  target_options.seed = options.seed ^ 0x5bd1e995;
  target_gp_ = std::make_unique<MultiOutputGp>(dim_, target_options);
  RecomputeWeights();
}

bool MetaLearner::in_static_phase() const {
  return static_cast<int>(target_raw_.size()) <
         options_.static_weight_iterations;
}

Status MetaLearner::RefitTargetGp() {
  // The standardizer sees only real measurements: penalized failure points
  // are evidence, not data, and must not shift the task's metric moments.
  target_standardizer_ = MetricStandardizer::FromObservations(target_raw_);
  std::vector<Observation> standardized;
  standardized.reserve(target_raw_.size());
  for (const Observation& obs : target_raw_) {
    standardized.push_back(target_standardizer_.Standardize(obs));
  }
  std::vector<Observation> standardized_failures;
  standardized_failures.reserve(failures_raw_.size());
  for (const Observation& obs : failures_raw_) {
    standardized_failures.push_back(target_standardizer_.Standardize(obs));
  }
  return target_gp_->Fit(standardized, standardized_failures);
}

Status MetaLearner::AddObservation(const Observation& raw_observation) {
  if (raw_observation.theta.size() != dim_) {
    return Status::InvalidArgument("observation dimension mismatch");
  }
  for (double t : raw_observation.theta) {
    if (!std::isfinite(t)) {
      return Status::InvalidArgument("non-finite knob value in observation");
    }
  }
  if (!std::isfinite(raw_observation.res) ||
      !std::isfinite(raw_observation.tps) ||
      !std::isfinite(raw_observation.lat)) {
    return Status::InvalidArgument("non-finite metric in observation");
  }
  RESTUNE_TRACE_SPAN("meta.observe");
  MetaMetrics::Get()->observations->Add();
  target_raw_.push_back(raw_observation);
  RESTUNE_RETURN_IF_ERROR(RefitTargetGp());

  // Extend each base learner's prediction cache with the new point. The
  // learners are immutable and each owns its cache row, so they extend
  // concurrently.
  {
    RESTUNE_TRACE_SPAN("meta.base_predictions");
    ThreadPool::Shared()->ParallelFor(bases_.size(), [&](size_t i) {
      LearnerPrediction pred;
      for (MetricKind kind : kAllMetricKinds) {
        pred.by_metric[static_cast<size_t>(kind)] =
            bases_[i].Predict(kind, raw_observation.theta);
      }
      base_pred_cache_[i].push_back(pred);
    });
  }
  RecomputeWeights();
  return Status::OK();
}

Status MetaLearner::AddFailure(const Vector& theta, double penalty_tps,
                               double penalty_lat) {
  if (theta.size() != dim_) {
    return Status::InvalidArgument("failure theta dimension mismatch");
  }
  for (double t : theta) {
    if (!std::isfinite(t)) {
      return Status::InvalidArgument("non-finite knob value in failure");
    }
  }
  if (!std::isfinite(penalty_tps) || !std::isfinite(penalty_lat)) {
    return Status::InvalidArgument("non-finite penalty value");
  }
  MetaMetrics::Get()->failures->Add();
  Observation penalized;
  penalized.theta = theta;
  penalized.tps = penalty_tps;
  penalized.lat = penalty_lat;
  failures_raw_.push_back(std::move(penalized));
  // With no real observations yet there is nothing to fit against; the
  // failure is ingested at the next refit. Weights are untouched either
  // way: failures carry no ranking information (their metric values are
  // penalties, not measurements).
  if (target_raw_.empty()) return Status::OK();
  return RefitTargetGp();
}

std::vector<double> MetaLearner::StaticWeights() const {
  std::vector<double> w(bases_.size() + 1, 0.0);
  for (size_t i = 0; i < bases_.size(); ++i) {
    const Vector& m = bases_[i].meta_feature();
    double dist = 0.0;
    if (m.size() == target_meta_feature_.size() && !m.empty()) {
      dist = std::sqrt(SquaredDistance(m, target_meta_feature_));
    } else {
      dist = 2.0 * options_.bandwidth;  // incomparable -> outside support
    }
    w[i] = EpanechnikovKernel(dist / options_.bandwidth);
  }
  // The target learner joins the static ensemble once it has data; its
  // meta-feature distance to itself is zero.
  if (target_gp_->fitted()) w.back() = EpanechnikovKernel(0.0);
  return w;
}

std::vector<std::vector<double>> MetaLearner::SampleRankingLosses() {
  const size_t total = target_raw_.size();
  const size_t num_learners = bases_.size() + 1;
  // At least one sample (none would leave the weights at 0 × 1/0), and a
  // cap of at least two points (one point has no pair to rank).
  const size_t samples =
      static_cast<size_t>(std::max(1, options_.ranking_loss_samples));
  const size_t max_points =
      options_.ranking_loss_max_points > 0
          ? static_cast<size_t>(std::max(2, options_.ranking_loss_max_points))
          : 0;

  // Subsample the target points entering the O(n²) pair scan when the
  // history is long.
  std::vector<size_t> points(total);
  for (size_t j = 0; j < total; ++j) points[j] = j;
  if (max_points > 0 && total > max_points) {
    rng_.Shuffle(&points);
    points.resize(max_points);
  }
  const size_t n = points.size();

  // Target ground truth per metric, as the order of each pair j < k:
  // true_order[u][j * n + k] = truth[j] <= truth[k].
  std::array<std::vector<uint8_t>, kNumMetricKinds> true_order;
  for (MetricKind kind : kAllMetricKinds) {
    auto& order = true_order[static_cast<size_t>(kind)];
    order.assign(n * n, 0);
    for (size_t j = 0; j < n; ++j) {
      const double tj = target_raw_[points[j]].metric(kind);
      for (size_t k = j + 1; k < n; ++k) {
        order[j * n + k] = tj <= target_raw_[points[k]].metric(kind);
      }
    }
  }

  // Leave-one-out posterior for the target learner (Section 6.4.2).
  std::array<std::vector<GpPrediction>, kNumMetricKinds> target_loo;
  for (MetricKind kind : kAllMetricKinds) {
    target_loo[static_cast<size_t>(kind)] =
        target_gp_->model(kind).LeaveOneOutPredictions();
  }

  // One row of draws per (sample, learner): for each metric, one posterior
  // draw per point. The standard normals come from the generator in that
  // (sample, learner, metric, point) order, as one Gaussian() call each
  // would draw them, so the weights do not depend on how rows are split.
  ThreadPool* pool = ThreadPool::Shared();
  const size_t row_size = kNumMetricKinds * n;
  std::vector<double> draws(samples * num_learners * row_size);
  rng_.FillGaussian(draws.data(), draws.size(), pool);

  // Each row counts its misranked pairs as an integer, so the count equals
  // the serial sum of 1.0s exactly and every row writes only its own slot.
  std::vector<std::vector<double>> losses(
      samples, std::vector<double>(num_learners, 0.0));
  pool->ParallelForRanges(samples * num_learners, [&](size_t lo, size_t hi) {
    for (size_t row = lo; row < hi; ++row) {
      const size_t i = row % num_learners;
      uint64_t misranked = 0;
      for (MetricKind kind : kAllMetricKinds) {
        const size_t u = static_cast<size_t>(kind);
        double* draw = draws.data() + row * row_size + u * n;
        for (size_t j = 0; j < n; ++j) {
          const GpPrediction& p =
              i < bases_.size()
                  ? base_pred_cache_[i][points[j]].by_metric[u]
                  : target_loo[u][points[j]];
          draw[j] = p.mean + p.stddev() * draw[j];
        }
        const uint8_t* order = true_order[u].data();
        for (size_t j = 0; j < n; ++j) {
          const double dj = draw[j];
          const uint8_t* order_j = order + j * n;
          uint32_t misranked_j = 0;
          for (size_t k = j + 1; k < n; ++k) {
            misranked_j += (dj <= draw[k]) != static_cast<bool>(order_j[k]);
          }
          misranked += misranked_j;
        }
      }
      losses[row / num_learners][i] = static_cast<double>(misranked);
    }
  });
  // Normalize to the fraction of misranked pairs so results are comparable
  // across subsample sizes (and directly reportable as Table 5's row).
  const double pairs =
      0.5 * static_cast<double>(n) * static_cast<double>(n - 1) *
      static_cast<double>(kNumMetricKinds);
  if (pairs > 0) {
    for (auto& row : losses) {
      for (double& v : row) v /= pairs;
    }
  }
  return losses;
}

std::vector<double> MetaLearner::DynamicWeights() {
  const size_t n = target_raw_.size();
  const size_t num_learners = bases_.size() + 1;
  std::vector<double> w(num_learners, 0.0);
  if (n < 2 || !target_gp_->fitted()) {
    w.back() = 1.0;
    return w;
  }

  const std::vector<std::vector<double>> losses = SampleRankingLosses();

  // Each learner is weighted by the probability that it attains the lowest
  // sampled ranking loss; ties share the win. Under the dilution guard a
  // historical learner that misranks at least half the pairs (no better
  // than random) is ineligible in that sample.
  auto eligible = [&](const std::vector<double>& row, size_t i) {
    if (!options_.prune_worse_than_random) return true;
    if (i + 1 == row.size()) return true;  // the target is always eligible
    return row[i] < 0.5;
  };
  for (const std::vector<double>& row : losses) {
    double best = row.back();
    for (size_t i = 0; i < row.size(); ++i) {
      if (eligible(row, i)) best = std::min(best, row[i]);
    }
    size_t num_best = 0;
    for (size_t i = 0; i < row.size(); ++i) {
      if (eligible(row, i) && row[i] <= best + 1e-12) ++num_best;
    }
    const double share = 1.0 / static_cast<double>(std::max<size_t>(1, num_best));
    for (size_t i = 0; i < row.size(); ++i) {
      if (eligible(row, i) && row[i] <= best + 1e-12) w[i] += share;
    }
  }
  const double inv = 1.0 / static_cast<double>(losses.size());
  for (double& v : w) v *= inv;

  // Record mean loss fractions for introspection (Table 5); losses are
  // already normalized to misranked-pair fractions.
  last_loss_fractions_.assign(num_learners, 0.0);
  for (const std::vector<double>& row : losses) {
    for (size_t i = 0; i < num_learners; ++i) {
      last_loss_fractions_[i] += row[i];
    }
  }
  for (double& v : last_loss_fractions_) {
    v /= static_cast<double>(losses.size());
  }
  return w;
}

void MetaLearner::RecomputeWeights() {
  RESTUNE_TRACE_SPAN("meta.weights");
  MetaMetrics* metrics = MetaMetrics::Get();
  metrics->weight_recomputes->Add();
  const bool static_phase = in_static_phase();
  if (was_static_phase_ && !static_phase) metrics->dynamic_switches->Add();
  was_static_phase_ = static_phase;
  std::vector<double> w = static_phase ? StaticWeights() : DynamicWeights();
  double sum = 0.0;
  for (double v : w) sum += v;
  if (sum < 1e-12) {
    // No comparable history and no target data yet: fall back to a uniform
    // ensemble so the surrogate is still defined.
    std::fill(w.begin(), w.end(), 1.0);
    if (!target_gp_->fitted()) w.back() = 0.0;
    sum = 0.0;
    for (double v : w) sum += v;
    if (sum < 1e-12) {
      w.assign(w.size(), 0.0);
      weights_ = std::move(w);
      PublishWeightGauges();
      return;
    }
  }
  for (double& v : w) v /= sum;
#ifndef NDEBUG
  // Normalization contract (Eq. 6 denominators assume it): every weight is
  // a finite probability and the ensemble sums to 1. A violation means the
  // ranking-loss sampler produced NaN losses or a negative kernel value.
  double check_sum = 0.0;
  for (double v : w) {
    RESTUNE_DCHECK(std::isfinite(v) && v >= 0.0 && v <= 1.0)
        << "ensemble weight " << v << " outside [0, 1]";
    check_sum += v;
  }
  RESTUNE_DCHECK(std::abs(check_sum - 1.0) < 1e-9)
      << "ensemble weights sum to " << check_sum << ", expected 1";
#endif
  weights_ = std::move(w);
  PublishWeightGauges();
}

void MetaLearner::PublishWeightGauges() const {
  if (weights_.empty()) return;
  // One gauge per ensemble position; the handles are process-global and
  // cached inside the registry, so this is a cold map lookup per learner
  // once per iteration — far off the hot path.
  for (size_t i = 0; i + 1 < weights_.size(); ++i) {
    BaseWeightGauge(i)->Set(weights_[i]);
  }
  MetaMetrics::Get()->target_weight->Set(weights_.back());
}

GpPrediction MetaLearner::PredictMetric(MetricKind kind,
                                        const Vector& theta) const {
  // Weighted ensemble mean (Eq. 6).
  double mean = 0.0;
  double weight_sum = 0.0;
  for (size_t i = 0; i < bases_.size(); ++i) {
    if (weights_[i] <= 0.0) continue;
    mean += weights_[i] * bases_[i].PredictMean(kind, theta);
    weight_sum += weights_[i];
  }
  GpPrediction target_pred{0.0, 1.0};
  const bool target_fitted = target_gp_->fitted();
  if (target_fitted) {
    target_pred = target_gp_->Predict(kind, theta);
    if (weights_.back() > 0.0) {
      mean += weights_.back() * target_pred.mean;
      weight_sum += weights_.back();
    }
  }
  mean = weight_sum > 1e-12 ? mean / weight_sum : 0.0;

  // Variance from the target learner only (Eq. 7). Before the target GP
  // exists (or under the ablation flag) fall back to the weighted average
  // of base-learner variances so the acquisition is still informative.
  double variance;
  if (options_.target_variance_only && target_fitted) {
    variance = target_pred.variance;
  } else {
    double var_acc = 0.0, var_w = 0.0;
    for (size_t i = 0; i < bases_.size(); ++i) {
      if (weights_[i] <= 0.0) continue;
      var_acc += weights_[i] * bases_[i].Predict(kind, theta).variance;
      var_w += weights_[i];
    }
    if (target_fitted && weights_.back() > 0.0) {
      var_acc += weights_.back() * target_pred.variance;
      var_w += weights_.back();
    }
    variance = var_w > 1e-12 ? var_acc / var_w : 1.0;
  }
  return {mean, std::max(variance, 1e-12)};
}

std::vector<GpPrediction> MetaLearner::PredictMetricBatch(
    MetricKind kind, const Matrix& thetas, ThreadPool* pool) const {
  const size_t m = thetas.rows();
  std::vector<GpPrediction> out(m);
  if (m == 0) return out;

  // Weighted ensemble mean (Eq. 6), one batch prediction per member. The
  // member loop stays serial — each member's batch path spreads the block
  // across `pool` when called at top level — and accumulation order
  // matches the per-point ensemble exactly.
  Vector mean(m, 0.0);
  double weight_sum = 0.0;
  for (size_t i = 0; i < bases_.size(); ++i) {
    if (weights_[i] <= 0.0) continue;
    const Vector base_means = bases_[i].PredictMeanBatch(kind, thetas, pool);
    for (size_t j = 0; j < m; ++j) mean[j] += weights_[i] * base_means[j];
    weight_sum += weights_[i];
  }
  std::vector<GpPrediction> target_pred;
  const bool target_fitted = target_gp_->fitted();
  if (target_fitted) {
    target_pred = target_gp_->PredictBatch(kind, thetas, pool);
    if (weights_.back() > 0.0) {
      for (size_t j = 0; j < m; ++j) {
        mean[j] += weights_.back() * target_pred[j].mean;
      }
      weight_sum += weights_.back();
    }
  }
  const double inv_weight = weight_sum > 1e-12 ? 1.0 / weight_sum : 0.0;

  // Variance from the target learner only (Eq. 7), with the same fallback
  // as the per-point path.
  if (options_.target_variance_only && target_fitted) {
    for (size_t j = 0; j < m; ++j) {
      out[j] = {mean[j] * inv_weight,
                std::max(target_pred[j].variance, 1e-12)};
    }
    return out;
  }
  Vector var_acc(m, 0.0);
  double var_w = 0.0;
  for (size_t i = 0; i < bases_.size(); ++i) {
    if (weights_[i] <= 0.0) continue;
    const std::vector<GpPrediction> base_pred =
        bases_[i].PredictBatch(kind, thetas, pool);
    for (size_t j = 0; j < m; ++j) {
      var_acc[j] += weights_[i] * base_pred[j].variance;
    }
    var_w += weights_[i];
  }
  if (target_fitted && weights_.back() > 0.0) {
    for (size_t j = 0; j < m; ++j) {
      var_acc[j] += weights_.back() * target_pred[j].variance;
    }
    var_w += weights_.back();
  }
  for (size_t j = 0; j < m; ++j) {
    const double variance = var_w > 1e-12 ? var_acc[j] / var_w : 1.0;
    out[j] = {mean[j] * inv_weight, std::max(variance, 1e-12)};
  }
  return out;
}

double MetaLearner::RescaledThreshold(MetricKind kind,
                                      const Vector& default_theta) const {
  return PredictMetric(kind, default_theta).mean;
}

std::vector<double> MetaLearner::MeanRankingLossFractions() const {
  if (last_loss_fractions_.empty()) return {};
  return std::vector<double>(last_loss_fractions_.begin(),
                             last_loss_fractions_.end() - 1);
}

}  // namespace restune
