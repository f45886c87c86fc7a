#ifndef RESTUNE_TUNER_CHECKPOINT_H_
#define RESTUNE_TUNER_CHECKPOINT_H_

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/result.h"
#include "common/rng.h"
#include "dbsim/fault_injector.h"
#include "dbsim/simulator.h"
#include "gp/observation.h"
#include "obs/metrics.h"
#include "tuner/safety.h"

namespace restune {

/// --- Session checkpoint --------------------------------------------------
///
/// A production tuning service must survive restarts without losing a
/// half-finished 200-iteration run, so the session periodically writes its
/// durable form: a *totally ordered* log of launch and completion records.
/// Launches appear in suggestion order (the order advisor RNG draws
/// happened); completions appear in delivery order, which is generally OUT
/// OF ORDER relative to launches. Advisor state is NOT serialized: replaying
/// the log start to finish through a fresh advisor + safety controller (same
/// seeds, same options) reproduces every internal state bit-for-bit,
/// including mid-flight evaluations that had been launched but not yet
/// delivered when the process died. Mutable RNG streams (simulator noise,
/// fault injector, supervisor jitter) are captured directly.

enum class EventKind {
  kLaunch = 0,
  kComplete = 1,
};

/// What a finished evaluation delivered. A completion record and an
/// in-flight record both carry it; the observation is meaningful, and
/// serialized, only when the evaluation succeeded.
struct CompletionOutcome {
  bool failed = false;
  Observation observation;
  FaultKind fault = FaultKind::kNone;
  int attempts = 1;
  double backoff_seconds = 0.0;
  double elapsed_seconds = 0.0;
  /// True when the session watchdog cancelled the pending slot (stall or
  /// over-deadline delivery) rather than the evaluation finishing.
  bool watchdog_killed = false;
};

/// One entry of a session's totally ordered log. The outcome fields are
/// completion fields.
struct EventRecord : CompletionOutcome {
  EventKind kind = EventKind::kLaunch;
  /// Launch sequence number; pairs a completion with its launch.
  uint64_t seq = 0;

  // Launch fields.
  /// The configuration posted for evaluation.
  Vector theta;
  /// True when θ is the frozen-mode safe-config probe (no advisor call was
  /// made — replay must not consume advisor RNG for this launch).
  bool frozen = false;
  /// Safety mode and SLA-monitor verdict at launch time (what the trust
  /// region saw when the suggestion was made).
  SessionMode mode = SessionMode::kHealthy;
  bool sla_violated = false;

  // Completion fields beyond the outcome.
  /// Safety state after ingesting this completion — written so resume can
  /// verify the replayed ladder bit-for-bit.
  SessionMode mode_after = SessionMode::kHealthy;
  bool sla_violated_after = false;
};

/// A launched-but-undelivered evaluation at checkpoint time. The simulated
/// outcome is computed eagerly at launch (that is what makes the event loop
/// deterministic), so the record carries the full result plus its delivery
/// time; θ and launch metadata live in the matching kLaunch record.
struct InFlightRecord : CompletionOutcome {
  uint64_t seq = 0;
  /// Absolute simulated-clock time at which the completion is delivered.
  double delivery_seconds = 0.0;
};

/// Durable state of an `EventTuningSession`.
struct EventSessionCheckpoint {
  /// Number of launches issued (== next seq) and completions ingested.
  uint64_t launched = 0;
  int completed = 0;
  /// Simulated session clock (advanced to each delivery time).
  double clock_seconds = 0.0;
  Observation default_observation;
  SlaConstraints sla;
  std::vector<EventRecord> records;
  std::vector<InFlightRecord> in_flight;
  DbInstanceSimulator::State simulator_state;
  RngState supervisor_rng;
  /// Observability counters at checkpoint time. Replay re-executes advisor
  /// work (inflating the live counters), so resume overwrites them with
  /// this snapshot once replay completes — a resumed run reports the same
  /// totals as the uninterrupted one. Empty when nothing was counted.
  obs::CounterSnapshot metrics;
};

/// Writes the checkpoint as one sealed FileKind::kEventCheckpoint file
/// (common/byte_codec.h); loading rejects anything else with a typed error.
Status SaveEventSessionCheckpoint(const EventSessionCheckpoint& checkpoint,
                                  std::ostream* out);
Result<EventSessionCheckpoint> LoadEventSessionCheckpoint(std::istream* in);

/// File variants. Saving is atomic: the checkpoint is written to
/// `<path>.tmp` and renamed over `path`, so a crash mid-write never leaves
/// a torn checkpoint behind.
Status SaveEventSessionCheckpointFile(const EventSessionCheckpoint& checkpoint,
                                      const std::string& path);
Result<EventSessionCheckpoint> LoadEventSessionCheckpointFile(
    const std::string& path);

/// Record codec, shared with the server checkpoint's session logs.
void WriteEventRecord(ByteWriter* out, const EventRecord& record);
Status ReadEventRecord(ByteReader* in, EventRecord* record);

}  // namespace restune

#endif  // RESTUNE_TUNER_CHECKPOINT_H_
