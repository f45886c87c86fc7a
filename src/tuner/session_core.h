#ifndef RESTUNE_TUNER_SESSION_CORE_H_
#define RESTUNE_TUNER_SESSION_CORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/result.h"
#include "gp/observation.h"
#include "tuner/advisor.h"
#include "tuner/checkpoint.h"
#include "tuner/safety.h"

namespace restune {

/// The paper's Section 4 loop — suggest θ, evaluate it elsewhere, feed the
/// metrics back — as a push-driven state machine. Every session driver
/// runs on it: `EventTuningSession` pushes from its simulated clock and
/// `ResTuneServer` from wire requests.
///
/// The core owns the degraded-mode ladder (tuner/safety.h), the
/// outstanding launches (seq → θ in seq order), the best strictly feasible
/// config, and the totally ordered launch/completion log. Each suggestion
/// is one `SuggestionRequest` the core builds from that state: the
/// outstanding θ as pending points and, while constrained, the trust
/// region around the safe config, into which the core clamps whatever the
/// advisor returns. The log is the durable form:
/// `Replay` rebuilds everything from it through a freshly constructed
/// advisor. The core neither evaluates nor persists, and emits no metrics
/// or trace events beyond the ladder's own metrics; its drivers do.
class SessionCore {
 public:
  /// Called once per replayed completion with its record and the θ of its
  /// launch.
  using CompletionFn =
      std::function<void(const EventRecord& completion, const Vector& theta)>;

  /// `advisor` must outlive the core. `sla_tolerance` is the strict
  /// feasibility verdict that gates best tracking and safe-config updates;
  /// `safety.monitor_tolerance` is the lenient one the SLA monitor reads.
  /// Launch seqs count up from `first_seq`.
  SessionCore(Advisor* advisor, const SafetyOptions& safety,
              double sla_tolerance, uint64_t first_seq);

  /// Anchors the session on the default configuration: installs the SLA,
  /// feeds the advisor the default observation, and makes `baseline_theta`
  /// both the safe config and the best so far.
  Status Begin(const Observation& default_observation,
               const SlaConstraints& sla, const Vector& baseline_theta);

  /// Issues the next launch and returns its record. A frozen session
  /// probes the safe config without calling the advisor; a constrained one
  /// clamps the suggestion into the trust region around it. A surrogate
  /// failure freezes the session and launches the safe config instead.
  /// Advisor exhaustion (kOutOfRange) is returned unchanged, and nothing
  /// is launched.
  Result<EventRecord> Launch();

  /// Feeds the outcome of outstanding launch `seq` to the advisor (a failure
  /// through `Advisor::ObserveFailure`) and the ladder, logs the completion, and returns its record (with
  /// `mode_after`). FailedPrecondition when `seq` is not outstanding.
  Result<EventRecord> Complete(uint64_t seq, const CompletionOutcome& outcome);

  /// Rebuilds a just-begun core from `log`, calling `on_complete` after
  /// each completion. FailedPrecondition when launch seqs are not
  /// contiguous from `first_seq`, a completion has no outstanding launch,
  /// a replayed θ differs from its record in any bit, or the ladder does
  /// not retrace the recorded modes.
  Status Replay(const std::vector<EventRecord>& log,
                const CompletionFn& on_complete);

  /// The strict SLA verdict of a completion (false for a failure).
  bool Feasible(const CompletionOutcome& outcome) const;

  const std::map<uint64_t, Vector>& outstanding() const {
    return outstanding_;
  }
  const std::vector<EventRecord>& log() const { return log_; }
  uint64_t launches() const { return next_seq_ - first_seq_; }
  int completions() const { return completions_; }
  const SafetyController& safety() const { return safety_; }
  const SlaConstraints& sla() const { return sla_; }
  const Observation& default_observation() const {
    return default_observation_;
  }
  const Vector& baseline_theta() const { return baseline_theta_; }
  double best_feasible_res() const { return best_feasible_res_; }
  const Vector& best_theta() const { return best_theta_; }
  /// Completion count at which the best was found; 0 = the baseline.
  int best_completion() const { return best_completion_; }

 private:
  /// The advisor's answer to the request for `mode`: the outstanding θ
  /// pending and, when constrained, the trust region, which the answer is
  /// clamped into.
  Result<Vector> Suggest(SessionMode mode);
  /// Logs a launch of `theta` and registers it as outstanding.
  EventRecord AppendLaunch(Vector theta, bool frozen, SessionMode mode);

  Advisor* advisor_;
  SafetyController safety_;
  double sla_tolerance_;
  uint64_t first_seq_;
  uint64_t next_seq_;
  SlaConstraints sla_;
  Observation default_observation_;
  Vector baseline_theta_;
  std::map<uint64_t, Vector> outstanding_;
  std::vector<EventRecord> log_;
  int completions_ = 0;
  double best_feasible_res_ = 0.0;
  Vector best_theta_;
  int best_completion_ = 0;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_SESSION_CORE_H_
