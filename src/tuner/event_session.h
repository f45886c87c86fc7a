#ifndef RESTUNE_TUNER_EVENT_SESSION_H_
#define RESTUNE_TUNER_EVENT_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "dbsim/simulator.h"
#include "tuner/advisor.h"
#include "tuner/checkpoint.h"
#include "tuner/safety.h"
#include "tuner/session.h"
#include "tuner/supervisor.h"

namespace restune {

/// Options for the event-driven tuning session.
struct EventSessionOptions {
  /// Completions to ingest before the session ends.
  int max_iterations = 200;
  /// Speculative q-CEI width: how many evaluations may be in flight at
  /// once. Suggestions beyond the first are penalized near pending points
  /// so the batch diversifies.
  int max_in_flight = 4;
  /// Relative tolerance when judging SLA feasibility.
  double sla_tolerance = 0.0;
  /// Per-evaluation watchdog deadline in simulated seconds, measured over
  /// the evaluation's whole supervised lifetime (attempts + backoff). A
  /// pending evaluation still undelivered at the deadline has its slot
  /// cancelled: stalls stay kStall, everything else is reclassified
  /// kTimeout. 0 derives `watchdog_multiplier * replay_seconds`.
  double watchdog_deadline_seconds = 0.0;
  double watchdog_multiplier = 12.0;
  /// SLA monitor, trust region, and degraded-mode ladder policy.
  SafetyOptions safety;
  /// Retry/backoff, failure-aware learning, and checkpointing policy
  /// (checkpoint_period counts completions here).
  SessionFaultOptions fault;
  /// Test hook simulating a kill: stop right after ingesting this many
  /// completions, leaving in-flight evaluations pending in the checkpoint.
  /// Pick a multiple of checkpoint_period so the halt write coincides with
  /// a periodic one (byte-identical resume comparison). 0 = disabled.
  int halt_after_completions = 0;
};

/// The paper's sequential tuning loop (Section 4) as an event-session
/// configuration: one evaluation in flight, so every suggestion sees every
/// earlier result, and a safety ladder that never leaves healthy (the SLA
/// monitor cannot collect more violations than its window holds, and
/// failures never constrain). Every other field keeps its default.
EventSessionOptions SequentialSessionOptions();

/// Point-in-time progress of a running event session, safe to read from a
/// monitoring thread while the session loop runs (see
/// `EventTuningSession::progress`).
struct EventSessionProgress {
  /// Completions ingested so far.
  int completed = 0;
  /// Launches issued so far (≥ completed; the gap is the in-flight set).
  uint64_t launched = 0;
  /// Evaluations currently awaiting delivery.
  size_t in_flight = 0;
  /// Simulated session clock.
  double clock_seconds = 0.0;
  /// Current rung of the degraded-mode ladder.
  SessionMode mode = SessionMode::kHealthy;
};

/// Always-on tuning loop: posts evaluation requests to the
/// `EvaluationSupervisor` asynchronously (up to `max_in_flight`
/// speculative suggestions, locally penalized near pending points) and
/// ingests completions in *delivery order* — generally out of order
/// relative to launches. Simulated delivery: each launch's outcome is
/// computed eagerly (so supervisor/simulator RNG is consumed in launch
/// order, making the loop thread-count invariant) and queued until the
/// session clock reaches its delivery time.
///
/// Safety (src/tuner/safety.h): an SLA monitor with hysteresis drives the
/// healthy → constrained → frozen ladder. While constrained, the advisor's
/// acquisition sweep is clamped into the L∞ trust region around the best
/// known-safe config; while frozen, the session stops consulting the
/// advisor and probes the safe config until results come back feasible. A
/// per-evaluation watchdog cancels pending slots that outlive their
/// deadline.
///
/// Durability: the totally ordered launch/completion log plus the pending
/// outcomes is the checkpoint. Resume replays the log through a freshly
/// constructed advisor and safety controller, verifying every replayed
/// suggestion and mode transition bit-for-bit, then re-materializes the
/// pending queue — a killed-and-resumed run continues byte-identically.
class EventTuningSession {
 public:
  EventTuningSession(DbInstanceSimulator* simulator, Advisor* advisor,
                     EventSessionOptions options = {});

  Result<SessionResult> Run();

  /// Continues an interrupted session from `fault.checkpoint_path`; see
  /// class comment. The advisor must be freshly constructed with the
  /// original seeds/options.
  Result<SessionResult> Resume();

  /// The totally ordered event log of the finished run (for tests and
  /// post-mortems).
  const std::vector<EventRecord>& records() const { return records_; }
  const SafetyController& safety() const { return safety_; }
  /// True when the run stopped via the halt_after_completions test hook.
  bool halted() const { return halted_; }

  /// Snapshot of the session's progress, safe to call from any thread
  /// while Run()/Resume() executes on another — the server direction needs
  /// a liveness probe for always-on sessions without stopping them. The
  /// loop publishes after every launch and ingest; everything else in this
  /// class stays single-threaded (owned by the thread inside Run).
  EventSessionProgress progress() const EXCLUDES(progress_mu_);

 private:
  /// A launched evaluation waiting for its delivery time.
  struct PendingEval {
    uint64_t seq = 0;
    Vector theta;
    double delivery_seconds = 0.0;
    bool failed = false;
    Observation observation;
    FaultKind fault = FaultKind::kNone;
    int attempts = 1;
    double backoff_seconds = 0.0;
    double elapsed_seconds = 0.0;
    bool watchdog_killed = false;
  };

  Result<SessionResult> RunInternal(const EventSessionCheckpoint* resume_from);
  /// Issues one launch: suggestion (advisor or frozen probe), eager
  /// supervised evaluation, watchdog classification, log + queue append.
  /// Returns false when the advisor is exhausted (kOutOfRange).
  Result<bool> Launch(EvaluationSupervisor* supervisor);
  /// Pops the earliest pending completion, feeds advisor + safety, records
  /// the completion event, and updates `result`. Returns the stop verdict
  /// (true = session should end).
  Status Ingest(SessionResult* result);
  /// Applies one delivered completion to the result bookkeeping (history,
  /// best tracking, retry totals). Shared verbatim by the live loop and
  /// checkpoint replay so both account identically.
  void ApplyCompletion(SessionResult* result, int iteration,
                       const PendingEval& eval, bool feasible);
  Status WriteCheckpoint(const SessionResult& result,
                         const EvaluationSupervisor& supervisor);
  double WatchdogDeadline() const;
  std::vector<Vector> PendingThetas() const;
  void PushPending(PendingEval eval);
  PendingEval PopPending();
  /// Copies the loop-owned counters into the mutex-guarded snapshot that
  /// progress() serves to other threads.
  void PublishProgress() EXCLUDES(progress_mu_);

  DbInstanceSimulator* simulator_;
  Advisor* advisor_;
  EventSessionOptions options_;
  SafetyController safety_;
  std::vector<EventRecord> records_;
  std::vector<PendingEval> pending_;  // min-heap on (delivery, seq)
  uint64_t launched_ = 0;
  int completed_ = 0;
  double clock_seconds_ = 0.0;
  bool advisor_exhausted_ = false;
  bool halted_ = false;

  /// Guards only the published snapshot. The loop state above is owned by
  /// the thread inside Run()/Resume() and deliberately unguarded; this
  /// narrow hand-off is the session's entire cross-thread surface.
  mutable Mutex progress_mu_;
  EventSessionProgress progress_ GUARDED_BY(progress_mu_);
};

}  // namespace restune

#endif  // RESTUNE_TUNER_EVENT_SESSION_H_
