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

/// What one suggestion must respect besides the advisor's own state: the
/// configurations still being evaluated, and the safety trust region while
/// the ladder is constrained. `{}` is the paper's sequential case: nothing
/// pending and the full knob box.
struct SuggestionRequest {
  /// Launched but not yet completed configurations. Surrogate advisors damp
  /// their acquisition near each one (constant-liar-style local
  /// penalization), so concurrent proposals diversify instead of
  /// collapsing onto one optimum.
  std::vector<Vector> pending;
  /// Center of the L∞ trust region; empty when there is none.
  Vector trust_center;
  double trust_radius = 0.0;

  bool has_trust_region() const { return !trust_center.empty(); }
  /// θ clamped into the trust region, or θ itself when there is none.
  Vector Clamp(const Vector& theta) const {
    return has_trust_region()
               ? ClampToTrustRegion(theta, trust_center, trust_radius)
               : theta;
  }
};

/// A knob-recommendation strategy. `SessionCore` drives the loop:
///
///   Begin(default observation, SLA)            — once
///   repeat: θ = SuggestNextAsync(request); Observe(eval(θ))
///
/// The request carries the pending θ and, while the ladder is constrained,
/// the trust region; the core clamps every suggestion into that region
/// whatever the advisor did with it. With `SequentialSessionOptions()`
/// every request is empty, so this is the paper's sequential loop
/// `θ = SuggestNext(); Observe(eval(θ))`.
///
/// Implementations: ResTune (meta-learned CBO), plain CBO (ResTune-w/o-ML),
/// iTuned (unconstrained EI), OtterTune-w-Con (workload mapping + CEI),
/// CDBTune-w-Con (DDPG), and grid search. The three surrogate advisors
/// share one `SuggestionStep` (tuner/suggestion_step.h) and differ only in
/// their surrogate and acquisition context.
class Advisor {
 public:
  virtual ~Advisor() = default;

  virtual const std::string& name() const = 0;

  /// Installs the SLA thresholds (derived from the default-config run) and
  /// lets the advisor ingest the default observation.
  virtual Status Begin(const Observation& default_observation,
                       const SlaConstraints& sla) = 0;

  /// Proposes the next normalized configuration to evaluate under
  /// `request`. kOutOfRange means the advisor is exhausted.
  virtual Result<Vector> SuggestNextAsync(
      const SuggestionRequest& request) = 0;

  /// The sequential suggestion: nothing pending, no trust region.
  Result<Vector> SuggestNext() { return SuggestNextAsync({}); }

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
