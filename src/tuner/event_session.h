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
#include "tuner/session_core.h"
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
/// healthy → constrained → frozen ladder. While constrained, every
/// suggestion is clamped into the L∞ trust region around the best
/// known-safe config; while frozen, the session stops consulting the
/// advisor and probes the safe config until results come back feasible. A
/// per-evaluation watchdog cancels pending slots that outlive their
/// deadline.
///
/// The suggest/complete bookkeeping, the ladder and the event log live in
/// the shared `SessionCore`; this class adds the simulated clock, eager
/// evaluation, the delivery queue, the watchdog and checkpoint I/O.
///
/// Durability: the totally ordered launch/completion log plus the pending
/// outcomes is the checkpoint. Resume replays the log through a freshly
/// constructed advisor (`SessionCore::Replay`, which verifies every
/// replayed suggestion and mode transition bit-for-bit), then
/// re-materializes the pending queue — a killed-and-resumed run continues
/// byte-identically.
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
  const std::vector<EventRecord>& records() const { return core_.log(); }
  const SafetyController& safety() const { return core_.safety(); }
  /// True when the run stopped via the halt_after_completions test hook.
  bool halted() const { return halted_; }

  /// Snapshot of the session's progress, safe to call from any thread
  /// while Run()/Resume() executes on another — the server direction needs
  /// a liveness probe for always-on sessions without stopping them. The
  /// loop publishes after every launch and ingest; everything else in this
  /// class stays single-threaded (owned by the thread inside Run).
  EventSessionProgress progress() const EXCLUDES(progress_mu_);

 private:
  /// A fresh core for this session's options; event-session seqs are
  /// 0-based.
  SessionCore MakeCore() const;
  Result<SessionResult> RunInternal(const EventSessionCheckpoint* resume_from);
  /// Rebuilds the core from the checkpoint's log, then the delivery queue
  /// from its in-flight outcomes, the clock and the RNG streams.
  Status Restore(const EventSessionCheckpoint& checkpoint,
                 SessionResult* result, EvaluationSupervisor* supervisor);
  /// Issues one launch: the core's suggestion, eager supervised
  /// evaluation, watchdog classification, queue append. Returns false when
  /// the advisor is exhausted (kOutOfRange).
  Result<bool> Launch(EvaluationSupervisor* supervisor);
  /// Pops the earliest pending outcome, completes it in the core and
  /// updates `result`.
  Status Ingest(SessionResult* result);
  /// Applies one completion to the result bookkeeping (history, best
  /// tracking, retry totals). Shared by the live loop and resume replay so
  /// both account identically.
  void ApplyCompletion(SessionResult* result, const EventRecord& completion,
                       const Vector& theta);
  Status WriteCheckpoint(const SessionResult& result,
                         const EvaluationSupervisor& supervisor);
  double WatchdogDeadline() const;
  void PushPending(InFlightRecord eval);
  InFlightRecord PopPending();
  /// Copies the loop-owned counters into the mutex-guarded snapshot that
  /// progress() serves to other threads.
  void PublishProgress() EXCLUDES(progress_mu_);

  DbInstanceSimulator* simulator_;
  Advisor* advisor_;
  EventSessionOptions options_;
  SessionCore core_;
  std::vector<InFlightRecord> pending_;  // min-heap on (delivery, seq)
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
