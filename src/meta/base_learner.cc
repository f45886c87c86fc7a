#include "meta/base_learner.h"

#include "common/fnv.h"
#include "meta/base_learner_cache.h"
#include "obs/metrics.h"

namespace restune {

namespace {

struct LearnerMetrics {
  obs::Counter* fits;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;

  static LearnerMetrics* Get() {
    static LearnerMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new LearnerMetrics();
      metrics->fits =
          registry->GetCounter("restune_meta_base_learner_fits_total");
      metrics->cache_hits =
          registry->GetCounter("restune_meta_base_learner_cache_hits_total");
      metrics->cache_misses =
          registry->GetCounter("restune_meta_base_learner_cache_misses_total");
      return metrics;
    }();
    return m;
  }
};

}  // namespace

std::string BaseLearnerFingerprint(const TuningTask& task,
                                   const GpOptions& options) {
  Fnv1a fnv;
  fnv.AddString(task.name);
  fnv.AddU64(task.meta_feature.size());
  for (double v : task.meta_feature) fnv.AddDouble(v);
  fnv.AddU64(task.observations.size());
  for (const Observation& obs : task.observations) {
    fnv.AddU64(obs.theta.size());
    for (double v : obs.theta) fnv.AddDouble(v);
    fnv.AddDouble(obs.res);
    fnv.AddDouble(obs.tps);
    fnv.AddDouble(obs.lat);
  }
  // Every option that changes the fitted model.
  fnv.AddDouble(options.noise_variance);
  fnv.AddU64(options.normalize_y ? 1 : 0);
  fnv.AddU64(options.optimize_hyperparams ? 1 : 0);
  fnv.AddU64(static_cast<uint64_t>(options.hyperopt_max_iters));
  fnv.AddU64(static_cast<uint64_t>(options.hyperopt_restarts));
  fnv.AddU64(options.seed);
  // A retired option, the training subset size, stays in the hash as 0:
  // repository files store fingerprints, and a changed hash would make
  // every saved learner miss the cache and refit.
  fnv.AddU64(0);
  return fnv.Hex();
}

GpOptions BaseLearner::DefaultGpOptions() {
  GpOptions options;
  options.normalize_y = false;  // inputs are pre-standardized per task
  options.optimize_hyperparams = true;
  options.hyperopt_max_iters = 50;
  options.hyperopt_restarts = 1;
  return options;
}

Result<BaseLearner> BaseLearner::Train(const TuningTask& task,
                                       GpOptions gp_options) {
  if (task.observations.empty()) {
    return Status::InvalidArgument("task '" + task.name +
                                   "' has no observations");
  }
  const std::string fingerprint = BaseLearnerFingerprint(task, gp_options);
  if (std::optional<BaseLearner> cached =
          BaseLearnerCache::Global()->Lookup(fingerprint)) {
    LearnerMetrics::Get()->cache_hits->Add();
    return *std::move(cached);
  }
  LearnerMetrics::Get()->cache_misses->Add();

  BaseLearner learner;
  learner.name_ = task.name;
  learner.meta_feature_ = task.meta_feature;
  learner.fingerprint_ = fingerprint;
  learner.standardizer_ =
      MetricStandardizer::FromObservations(task.observations);

  std::vector<Observation> standardized;
  standardized.reserve(task.observations.size());
  for (const Observation& obs : task.observations) {
    standardized.push_back(learner.standardizer_.Standardize(obs));
  }
  learner.gp_ = std::make_shared<MultiOutputGp>(
      task.observations[0].theta.size(), gp_options);
  RESTUNE_RETURN_IF_ERROR(learner.gp_->Fit(standardized));
  LearnerMetrics::Get()->fits->Add();
  BaseLearnerCache::Global()->Insert(fingerprint, learner);
  return learner;
}

BaseLearner BaseLearner::FromParts(std::string name, Vector meta_feature,
                                   MetricStandardizer standardizer,
                                   std::shared_ptr<MultiOutputGp> gp,
                                   std::string fingerprint) {
  BaseLearner learner;
  learner.name_ = std::move(name);
  learner.meta_feature_ = std::move(meta_feature);
  learner.standardizer_ = standardizer;
  learner.fingerprint_ = std::move(fingerprint);
  learner.gp_ = std::move(gp);
  return learner;
}

GpPrediction BaseLearner::Predict(MetricKind kind, const Vector& theta) const {
  return gp_->Predict(kind, theta);
}

double BaseLearner::PredictMean(MetricKind kind, const Vector& theta) const {
  return gp_->PredictMean(kind, theta);
}

std::vector<GpPrediction> BaseLearner::PredictBatch(MetricKind kind,
                                                    const Matrix& thetas,
                                                    ThreadPool* pool) const {
  return gp_->PredictBatch(kind, thetas, pool);
}

Vector BaseLearner::PredictMeanBatch(MetricKind kind, const Matrix& thetas,
                                     ThreadPool* pool) const {
  return gp_->PredictMeanBatch(kind, thetas, pool);
}

}  // namespace restune
