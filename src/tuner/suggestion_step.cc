#include "tuner/suggestion_step.h"

#include <utility>

#include "bo/batch.h"
#include "bo/lhs.h"

namespace restune {

SuggestionStep::SuggestionStep(size_t dim, uint64_t seed,
                               QuarantineOptions quarantine,
                               AcqOptimizerOptions acq_optimizer)
    : dim_(dim),
      rng_(seed),
      acq_optimizer_(std::move(acq_optimizer)),
      quarantine_(quarantine) {}

void SuggestionStep::QueueDesign(size_t count) {
  design_ = LatinHypercubeSample(count, dim_, &rng_);
}

std::optional<Vector> SuggestionStep::NextDesignPoint(
    const SuggestionRequest& request) {
  while (!design_.empty()) {
    Vector next = request.Clamp(design_.back());
    design_.pop_back();
    if (!quarantine_.empty() && quarantine_.Contains(next)) continue;
    return next;
  }
  return std::nullopt;
}

Vector SuggestionStep::Maximize(const SuggestionRequest& request,
                                const BatchAcquisitionFn& acquisition) {
  auto penalized = [&](const std::vector<Matrix>& blocks) {
    std::vector<std::vector<double>> values = acquisition(blocks);
    for (size_t b = 0; b < values.size() && b < blocks.size(); ++b) {
      PenalizeNearPoints(blocks[b], request.pending, kPendingPenaltyRadius,
                         &values[b]);
    }
    return values;
  };
  AcqOptimizerOptions options = acq_optimizer_;
  if (!quarantine_.empty()) {
    options.reject = [this](const Vector& theta) {
      return quarantine_.Contains(theta);
    };
  }
  if (request.has_trust_region()) {
    options.project = [&request](const Vector& theta) {
      return request.Clamp(theta);
    };
  }
  return MaximizeAcquisitionBatch(penalized, dim_, &rng_, options);
}

void SuggestionStep::ObserveFailure(const Vector& theta, FaultKind kind) {
  if (kind == FaultKind::kCrash || kind == FaultKind::kTimeout ||
      kind == FaultKind::kStall) {
    quarantine_.Add(theta);
  }
}

}  // namespace restune
