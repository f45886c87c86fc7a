#include "gp/multi_output_gp.h"

#include <cmath>

namespace restune {
namespace {

Status ValidateFinite(const Vector& theta, double res, double tps,
                      double lat) {
  for (double t : theta) {
    if (!std::isfinite(t)) {
      return Status::InvalidArgument("non-finite knob value in observation");
    }
  }
  if (!std::isfinite(res) || !std::isfinite(tps) || !std::isfinite(lat)) {
    return Status::InvalidArgument("non-finite metric in observation");
  }
  return Status::OK();
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kRes:
      return "res";
    case MetricKind::kTps:
      return "tps";
    case MetricKind::kLat:
      return "lat";
  }
  return "?";
}

MultiOutputGp::MultiOutputGp(size_t dim, GpOptions options)
    : models_{GpModel(dim, options), GpModel(dim, options),
              GpModel(dim, options)} {}

Status MultiOutputGp::Fit(const std::vector<Observation>& observations) {
  return Fit(observations, {});
}

Status MultiOutputGp::Fit(const std::vector<Observation>& observations,
                          const std::vector<Observation>& constraint_only) {
  if (observations.empty()) {
    return Status::InvalidArgument("no observations to fit");
  }
  // Rows are copied into one matrix, so a θ of another width (a corrupt
  // repository file, say) must be rejected, not written out of bounds.
  const size_t dim = observations[0].theta.size();
  for (const auto* set : {&observations, &constraint_only}) {
    for (const Observation& obs : *set) {
      if (obs.theta.size() != dim) {
        return Status::InvalidArgument("observations differ in dimension");
      }
      RESTUNE_RETURN_IF_ERROR(
          ValidateFinite(obs.theta, obs.res, obs.tps, obs.lat));
    }
  }
  Matrix x(observations.size(), observations[0].theta.size());
  for (size_t r = 0; r < observations.size(); ++r) {
    for (size_t c = 0; c < observations[r].theta.size(); ++c) {
      x(r, c) = observations[r].theta[c];
    }
  }
  // Constraint-only (failure) rows are appended after the real rows so that
  // row r < observations.size() refers to the same configuration in every
  // model.
  Matrix x_con(observations.size() + constraint_only.size(),
               observations[0].theta.size());
  for (size_t r = 0; r < observations.size(); ++r) {
    for (size_t c = 0; c < x_con.cols(); ++c) {
      x_con(r, c) = observations[r].theta[c];
    }
  }
  for (size_t r = 0; r < constraint_only.size(); ++r) {
    for (size_t c = 0; c < x_con.cols(); ++c) {
      x_con(observations.size() + r, c) = constraint_only[r].theta[c];
    }
  }
  for (MetricKind kind : kAllMetricKinds) {
    const bool with_failures =
        kind != MetricKind::kRes && !constraint_only.empty();
    const size_t n = observations.size() +
                     (with_failures ? constraint_only.size() : 0);
    Vector y(n);
    for (size_t r = 0; r < observations.size(); ++r) {
      y[r] = observations[r].metric(kind);
    }
    if (with_failures) {
      for (size_t r = 0; r < constraint_only.size(); ++r) {
        y[observations.size() + r] = constraint_only[r].metric(kind);
      }
    }
    RESTUNE_RETURN_IF_ERROR(
        model(kind).Fit(with_failures ? x_con : x, y));
  }
  return Status::OK();
}

Status MultiOutputGp::Update(const Observation& observation) {
  RESTUNE_RETURN_IF_ERROR(ValidateFinite(observation.theta, observation.res,
                                         observation.tps, observation.lat));
  for (MetricKind kind : kAllMetricKinds) {
    RESTUNE_RETURN_IF_ERROR(
        model(kind).Update(observation.theta, observation.metric(kind)));
  }
  return Status::OK();
}

Status MultiOutputGp::UpdateConstraintOnly(const Observation& penalized) {
  RESTUNE_RETURN_IF_ERROR(ValidateFinite(penalized.theta, penalized.res,
                                         penalized.tps, penalized.lat));
  if (!model(MetricKind::kTps).fitted() ||
      !model(MetricKind::kLat).fitted()) {
    return Status::FailedPrecondition(
        "constraint models not fitted; cannot ingest failure point");
  }
  RESTUNE_RETURN_IF_ERROR(
      model(MetricKind::kTps).Update(penalized.theta, penalized.tps));
  return model(MetricKind::kLat).Update(penalized.theta, penalized.lat);
}

bool MultiOutputGp::fitted() const { return models_[0].fitted(); }

GpPrediction MultiOutputGp::Predict(MetricKind kind,
                                    const Vector& theta) const {
  return model(kind).Predict(theta);
}

double MultiOutputGp::PredictMean(MetricKind kind, const Vector& theta) const {
  return model(kind).PredictMean(theta);
}

std::vector<GpPrediction> MultiOutputGp::PredictBatch(MetricKind kind,
                                                      const Matrix& thetas,
                                                      ThreadPool* pool) const {
  return model(kind).PredictBatch(thetas, pool);
}

Vector MultiOutputGp::PredictMeanBatch(MetricKind kind, const Matrix& thetas,
                                       ThreadPool* pool) const {
  return model(kind).PredictMeanBatch(thetas, pool);
}

}  // namespace restune
