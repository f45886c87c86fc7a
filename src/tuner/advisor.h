#ifndef RESTUNE_TUNER_ADVISOR_H_
#define RESTUNE_TUNER_ADVISOR_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/result.h"
#include "dbsim/fault_injector.h"
#include "gp/observation.h"

namespace restune {

/// Clamps θ into the L∞ box [center - radius, center + radius] ∩ [0,1]^d —
/// the safety trust region's projection. Pure (no RNG), so it is legal as an
/// acquisition-optimizer `project` hook.
inline Vector ClampToTrustRegion(const Vector& theta, const Vector& center,
                                 double radius) {
  Vector out = theta;
  for (size_t d = 0; d < out.size() && d < center.size(); ++d) {
    const double lo = std::max(0.0, center[d] - radius);
    const double hi = std::min(1.0, center[d] + radius);
    out[d] = std::clamp(out[d], lo, hi);
  }
  return out;
}

/// A knob-recommendation strategy. The `EventTuningSession` drives the loop:
///
///   Begin(default observation, SLA)            — once
///   repeat: θ = SuggestNextAsync(pending); Observe(eval(θ))
///
/// With `SequentialSessionOptions()` nothing is ever pending, so this is the
/// paper's sequential loop `θ = SuggestNext(); Observe(eval(θ))`.
///
/// Implementations: ResTune (meta-learned CBO), plain CBO (ResTune-w/o-ML),
/// iTuned (unconstrained EI), OtterTune-w-Con (workload mapping + CEI),
/// CDBTune-w-Con (DDPG), and grid search.
class Advisor {
 public:
  virtual ~Advisor() = default;

  virtual const std::string& name() const = 0;

  /// Installs the SLA thresholds (derived from the default-config run) and
  /// lets the advisor ingest the default observation.
  virtual Status Begin(const Observation& default_observation,
                       const SlaConstraints& sla) = 0;

  /// Proposes the next normalized configuration to evaluate.
  virtual Result<Vector> SuggestNext() = 0;

  /// Speculative suggestion while `pending` configurations are still being
  /// evaluated: the acquisition is locally penalized near each pending
  /// point (constant-liar-style), so concurrent asynchronous proposals
  /// diversify instead of collapsing onto one optimum. The default ignores
  /// `pending` and delegates to SuggestNext() — bitwise identical to the
  /// synchronous path when `pending` is empty.
  virtual Result<Vector> SuggestNextAsync(const std::vector<Vector>& pending) {
    (void)pending;
    return SuggestNext();
  }

  /// Installs a safety trust region: until cleared, every suggestion is
  /// clamped into the L∞ box [center - radius, center + radius] ∩ [0,1]^d.
  /// Default no-op for baselines without the safety path.
  virtual void SetTrustRegion(const Vector& center, double radius) {
    (void)center;
    (void)radius;
  }
  virtual void ClearTrustRegion() {}

  /// Feeds back the evaluation result of the last suggestion.
  virtual Status Observe(const Observation& observation) = 0;

  /// Feeds back a classified evaluation failure of the last suggestion
  /// (crash, timeout, retries-exhausted transient/corruption). Advisors that
  /// learn from failures treat θ as a hard SLA violation — a penalized point
  /// for the constraint models, never a fake value for the resource model —
  /// and quarantine fatal knob regions. The default ignores failures, which
  /// is the pre-fault-tolerance behavior of every baseline.
  virtual Status ObserveFailure(const Vector& theta,
                                const EvaluationFault& fault) {
    (void)theta;
    (void)fault;
    return Status::OK();
  }
};

}  // namespace restune

#endif  // RESTUNE_TUNER_ADVISOR_H_
