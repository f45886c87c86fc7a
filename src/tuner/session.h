#ifndef RESTUNE_TUNER_SESSION_H_
#define RESTUNE_TUNER_SESSION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dbsim/simulator.h"
#include "tuner/advisor.h"
#include "tuner/supervisor.h"

namespace restune {

/// Fault-tolerance policy of a tuning session: how evaluations are
/// supervised and where session state is checkpointed for crash recovery.
/// Classified failures always feed back into the advisor as hard SLA
/// violations (constraint evidence + knob quarantine).
struct SessionFaultOptions {
  RetryPolicy retry;
  /// Path of the session checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Checkpoint every this many iterations (a final checkpoint is always
  /// written when a path is set).
  int checkpoint_period = 10;
  /// Seed of the supervisor's backoff-jitter RNG.
  uint64_t supervisor_seed = 0x5eed;
};

/// Per-iteration record of a tuning session.
struct IterationRecord {
  int iteration = 0;
  Observation observation;
  bool feasible = false;
  /// Best feasible resource value up to and including this iteration
  /// (default-config value until something better is found).
  double best_feasible_res = 0.0;
  double replay_seconds = 0.0;
  /// True when the evaluation failed for good (after retries); the
  /// observation then carries only θ, not metrics.
  bool failed = false;
  /// Final fault classification (kNone on success).
  FaultKind fault = FaultKind::kNone;
  /// Evaluation attempts the supervisor spent on this iteration.
  int attempts = 1;
  /// Total simulated backoff slept between this iteration's attempts.
  double backoff_seconds = 0.0;
};

/// Outcome of a tuning session (see `EventTuningSession`).
struct SessionResult {
  Observation default_observation;
  SlaConstraints sla;
  std::vector<IterationRecord> history;
  double best_feasible_res = 0.0;
  Vector best_theta;
  int best_iteration = 0;  // 0 = default configuration
  /// Iterations whose evaluation failed after all supervision.
  int failed_iterations = 0;
  /// Extra evaluation attempts spent on retries across the whole session.
  int total_retries = 0;
  /// True when this result continues an interrupted run from a checkpoint.
  bool resumed = false;

  /// Iterations until the best feasible value was first reached within
  /// `rel_tol` (paper Table 4's "Iteration" rows).
  int IterationsToBest(double rel_tol = 0.0) const;

  /// Writes the per-iteration history as CSV
  /// (iteration,res,tps,lat,feasible,best_feasible_res,failed,fault,attempts)
  /// for plotting.
  Status WriteCsv(const std::string& path) const;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_SESSION_H_
