#ifndef RESTUNE_SERVICE_RESTUNE_SERVER_H_
#define RESTUNE_SERVICE_RESTUNE_SERVER_H_

#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_codec.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "meta/data_repository.h"
#include "service/messages.h"
#include "tuner/restune_advisor.h"
#include "tuner/safety.h"
#include "tuner/session_core.h"

namespace restune {

/// Options for the tuning server.
struct ServerOptions {
  ResTuneAdvisorOptions advisor;
  /// Archive finished sessions' observations back into the repository (the
  /// paper: "When the tuning task ends, the meta-data of the task is
  /// collected to the data repository").
  bool archive_finished_sessions = true;
  /// Minimum observations a finished session needs to be archived (a
  /// two-iteration session teaches nothing).
  size_t min_observations_to_archive = 10;
  /// Path of the server checkpoint file; empty disables auto-checkpointing.
  /// With a path set, the server snapshots itself every
  /// `checkpoint_period` state-changing calls (session start, evaluation
  /// report, session finish) via the atomic `SaveCheckpointFile`.
  std::string checkpoint_path;
  int checkpoint_period = 10;
  /// Thresholds of each session's degraded-mode ladder (tuner/safety.h).
  /// Every session runs the ladder: a frozen session probes the last
  /// known-safe config without an advisor call, a constrained one clamps
  /// suggestions into the L∞ trust region around it, and a surrogate
  /// failure freezes the session instead of failing the request. True
  /// applies `safety`; false applies the never-tripping thresholds of
  /// `SequentialSessionOptions().safety`, which leave the session healthy
  /// unless the surrogate fails.
  bool use_event_sessions = false;
  /// Ladder thresholds and monitor tolerance (with use_event_sessions).
  SafetyOptions safety;
};

/// ResTune Server (paper Fig. 2, right side): hosts the data repository and
/// the Knowledge Extraction + Knobs Recommendation components. Drives any
/// number of concurrent tuning sessions, one meta-learner each.
///
/// The server never sees SQL or data — only meta-features and metric
/// tuples, the privacy split the paper's deployment uses.
///
/// Event-driven fault-tolerance contract:
/// * Each session is a `SessionCore` (tuner/session_core.h), the same
///   launch/complete/replay state machine a local `EventTuningSession`
///   runs, driven here by wire requests. Server seqs are 1-based: the
///   launch seq is the wire iteration.
/// * Every issued recommendation is an outstanding *launch* until its
///   report arrives, and reports may arrive in any order (`RecommendBatch`
///   hands out several speculative recommendations at once, each penalized
///   near the ones still pending, so a fleet of replay workers can
///   evaluate them concurrently).
/// * `Recommend` is idempotent: while recommendations are outstanding, the
///   oldest one is returned again (a client that lost the response can
///   simply re-ask without burning an iteration).
/// * `ReportEvaluation` accepts reports for ANY outstanding iteration —
///   out of order relative to issuance — and is idempotent: a report for
///   an already-processed iteration is a no-op. Reports may carry a
///   `fault`, which is fed to the advisor as failure evidence rather than
///   metrics.
/// * `FinishSession` is idempotent: finishing twice returns the cached
///   summary. Recommend/Report on a finished session fail loudly.
/// * The whole server state (repository, sessions' totally ordered
///   launch/completion logs, finished summaries) checkpoints to a
///   stream/file and restores through `SessionCore::Replay`; outstanding
///   recommendations are re-derived from unmatched launches, so a
///   restarted server continues mid-session with work still in flight.
///
/// Thread safety: every public method may be called from any thread — a
/// transport layer can dispatch concurrent client requests straight into
/// the server. One mutex serializes all server state (repository, session
/// map, finished summaries, id/mutation counters); sessions are coarse
/// critical sections by design, since an advisor suggestion is the work
/// and splitting the lock would only add ordering bugs, not parallelism.
/// The locking discipline is compiler-checked (clang -Wthread-safety) via
/// the GUARDED_BY/REQUIRES annotations below.
class ResTuneServer {
 public:
  explicit ResTuneServer(ServerOptions options = {});

  /// Registers historical meta-data (e.g. loaded from disk) before serving.
  Status AddHistoricalTask(TuningTask task) EXCLUDES(mu_);
  size_t repository_size() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return repository_.num_tasks();
  }

  /// Opens a tuning session: trains/collects base-learners, computes static
  /// weights from the submitted meta-feature, ingests the default
  /// observation. Returns the session id. Rejects malformed submissions
  /// (zero knob dimension, mismatched vector sizes, non-finite values,
  /// non-positive default throughput/latency).
  Result<uint64_t> StartSession(const TargetTaskSubmission& submission)
      EXCLUDES(mu_);

  /// Next configuration for the session to evaluate. While recommendations
  /// are outstanding the oldest one is returned again (at-least-once
  /// delivery for clients that retry); otherwise a new one is issued.
  Result<KnobRecommendation> Recommend(uint64_t session_id) EXCLUDES(mu_);

  /// Speculative batch: tops the session's outstanding set up to `width`
  /// recommendations and returns all of them, oldest first. New
  /// suggestions are penalized near the in-flight ones (constant-liar
  /// q-CEI), so concurrent replay workers get a diverse batch. Re-asking
  /// without reporting returns the same set — the call is idempotent, like
  /// `Recommend`.
  Result<std::vector<KnobRecommendation>> RecommendBatch(uint64_t session_id,
                                                         int width)
      EXCLUDES(mu_);

  /// Feeds an evaluation result back into the session's meta-learner.
  /// Reports for outstanding iterations are accepted in ANY order; reports
  /// for already-processed iterations are accepted as duplicates (no-op);
  /// reports from the future, with malformed metrics, or with a mismatched
  /// θ dimension are rejected.
  Status ReportEvaluation(const EvaluationReport& report) EXCLUDES(mu_);

  /// Closes the session; optionally archives its observations as a new
  /// historical task in the repository. Idempotent: finishing an already-
  /// finished session returns its cached summary.
  Result<SessionSummary> FinishSession(uint64_t session_id) EXCLUDES(mu_);

  size_t active_sessions() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return sessions_.size();
  }
  size_t finished_sessions() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return finished_.size();
  }

  /// Serializes the full server state (repository, active sessions as
  /// event logs, finished summaries). Advisor internals are not written;
  /// `LoadCheckpoint` rebuilds each advisor by replaying its event log with
  /// bitwise verification against the recorded recommendations.
  /// The bytes are one sealed FileKind::kServerCheckpoint file
  /// (common/byte_codec.h); anything else is rejected with a typed error.
  Status SaveCheckpoint(std::ostream* out) const EXCLUDES(mu_);
  Status LoadCheckpoint(std::istream* in) EXCLUDES(mu_);

  /// File variants; saving goes through `<path>.tmp` + rename, so a crash
  /// mid-write never leaves a torn checkpoint.
  Status SaveCheckpointFile(const std::string& path) const EXCLUDES(mu_);
  Status LoadCheckpointFile(const std::string& path) EXCLUDES(mu_);

  /// Prometheus text exposition of the process-wide metrics registry, with
  /// server-level gauges (active/finished sessions, repository size)
  /// refreshed first. This is what a scrape endpoint would serve; exposed
  /// as a string so transports stay out of the core.
  std::string MetricsText() const EXCLUDES(mu_);

 private:
  /// A served session: the shared core plus what archiving and replay
  /// need beyond it.
  struct Session {
    Session(std::unique_ptr<ResTuneAdvisor> session_advisor,
            const SafetyOptions& safety);

    std::string task_name;
    Vector meta_feature;
    /// Repository size when the session started; replay after a restart
    /// trains base-learners from exactly this prefix, so tasks archived
    /// later do not silently change the ensemble mid-session.
    size_t repository_snapshot = 0;
    /// The default observation and every reported one, for archiving.
    std::vector<Observation> observations;
    std::unique_ptr<ResTuneAdvisor> advisor;
    SessionCore core;
  };

  std::vector<BaseLearner> TrainSessionLearners(size_t knob_dim,
                                                size_t repository_snapshot)
      const REQUIRES(mu_);
  /// Validates a session start, trains its base-learners on the first
  /// `repository_snapshot` tasks and begins its core.
  Result<Session> OpenSession(const std::string& task_name,
                              const Vector& meta_feature, size_t knob_dim,
                              const Vector& default_theta,
                              const Observation& default_observation,
                              const SlaConstraints& sla,
                              size_t repository_snapshot) const REQUIRES(mu_);
  /// Issues one new recommendation for the session (launches in its core).
  Result<KnobRecommendation> IssueRecommendation(uint64_t session_id,
                                                 Session* session)
      REQUIRES(mu_);
  void MaybeAutoCheckpoint() REQUIRES(mu_);
  /// Checkpoint payload of the current state. MaybeAutoCheckpoint runs
  /// under mu_ and must not re-enter the public SaveCheckpointFile (that
  /// would self-deadlock on the non-reentrant mutex), so the public entry
  /// points lock and delegate here.
  std::string EncodeCheckpointLocked() const REQUIRES(mu_);
  Status SaveCheckpointFileLocked(const std::string& path) const
      REQUIRES(mu_);
  /// Decodes a checkpoint payload and replaces the server state with it.
  Status RestoreCheckpoint(std::string_view payload) EXCLUDES(mu_);
  /// Decodes and replays the sessions section of a checkpoint into
  /// `sessions`. A member (not a lambda inside RestoreCheckpoint) because
  /// the thread-safety analysis treats lambda bodies as separate functions
  /// and would not see the caller's lock across the capture boundary.
  Status RestoreSessions(ByteReader* in,
                         std::map<uint64_t, Session>* sessions)
      REQUIRES(mu_);

  const ServerOptions options_;  // immutable after construction
  /// The ladder thresholds every session runs (see use_event_sessions).
  const SafetyOptions session_safety_;
  /// One coarse lock serializes the whole server; see the class comment.
  mutable Mutex mu_;
  DataRepository repository_ GUARDED_BY(mu_);
  std::map<uint64_t, Session> sessions_ GUARDED_BY(mu_);
  std::map<uint64_t, SessionSummary> finished_ GUARDED_BY(mu_);
  uint64_t next_session_id_ GUARDED_BY(mu_) = 1;
  uint64_t mutations_ GUARDED_BY(mu_) = 0;
  /// Payload size of the last checkpoint, the next one's reserve hint.
  mutable size_t last_checkpoint_bytes_ GUARDED_BY(mu_) = 0;
};

}  // namespace restune

#endif  // RESTUNE_SERVICE_RESTUNE_SERVER_H_
