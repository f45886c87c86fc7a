#ifndef RESTUNE_TUNER_SUGGESTION_STEP_H_
#define RESTUNE_TUNER_SUGGESTION_STEP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "bo/acq_optimizer.h"
#include "common/rng.h"
#include "dbsim/fault_injector.h"
#include "tuner/advisor.h"
#include "tuner/quarantine.h"

namespace restune {

/// The suggestion step of constrained BO (paper Section 5), shared by every
/// surrogate advisor: the paper changes only the surrogate between
/// ResTune-w/o-ML and ResTune, never the loop around it. The step owns the
/// advisor's RNG, its space-filling design queue and its knob quarantine;
/// the advisor keeps its surrogate, how the surrogate learns, and the
/// `AcquisitionContext` it scores candidates with.
///
/// A suggestion is the next queued design point (`NextDesignPoint`) or,
/// once the design is spent, the maximizer of the advisor's batch
/// acquisition (`Maximize`). Both honour the request: the trust region
/// clamps design points and projects every candidate, pending points damp
/// the acquisition, and quarantined configurations are skipped or vetoed.
/// This is the only place under src/tuner that maximizes an acquisition
/// (lint rule `advisor-discipline`).
class SuggestionStep {
 public:
  /// L2 radius (normalized knob units) inside which a pending configuration
  /// damps the acquisition; zero at the pending point, full strength at the
  /// radius.
  static constexpr double kPendingPenaltyRadius = 0.15;

  SuggestionStep(size_t dim, uint64_t seed, QuarantineOptions quarantine,
                 AcqOptimizerOptions acq_optimizer);

  /// Draws a Latin hypercube design of `count` points from the step's RNG.
  /// Queued points are suggested, last first, before any acquisition.
  void QueueDesign(size_t count);

  /// Pops queued design points until one, clamped into the request's trust
  /// region, lies outside the quarantine (a configuration nearby crashed
  /// since the design was drawn); nullopt once the queue is empty.
  std::optional<Vector> NextDesignPoint(const SuggestionRequest& request);

  /// Maximizes `acquisition` over the unit box, damped near the request's
  /// pending points, with every candidate projected into its trust region
  /// and quarantined candidates vetoed.
  Vector Maximize(const SuggestionRequest& request,
                  const BatchAcquisitionFn& acquisition);

  /// Quarantines θ when the failure is fatal: the DBMS crashed, timed out
  /// or hung there.
  void ObserveFailure(const Vector& theta, FaultKind kind);

  const KnobQuarantine& quarantine() const { return quarantine_; }

 private:
  size_t dim_;
  Rng rng_;
  AcqOptimizerOptions acq_optimizer_;
  KnobQuarantine quarantine_;
  std::vector<Vector> design_;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_SUGGESTION_STEP_H_
