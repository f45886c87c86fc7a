#include "service/restune_server.h"

#include <cmath>

#include "common/contracts.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "service/wire.h"
#include "tuner/checkpoint.h"
#include "tuner/event_session.h"

namespace restune {
namespace {

using internal::AllFinite;

/// A measured observation the server is willing to learn from: finite
/// everywhere, throughput and latency strictly positive, resource
/// non-negative.
Status ValidateMetrics(const Observation& obs) {
  if (!std::isfinite(obs.res) || !std::isfinite(obs.tps) ||
      !std::isfinite(obs.lat)) {
    return Status::InvalidArgument("observation metrics must be finite");
  }
  if (obs.res < 0.0) {
    return Status::InvalidArgument("resource usage must be non-negative");
  }
  if (obs.tps <= 0.0 || obs.lat <= 0.0) {
    return Status::InvalidArgument(
        "throughput and latency must be positive; report a fault instead of "
        "zeroed metrics for a failed replay");
  }
  if (!AllFinite(obs.theta) || !AllFinite(obs.internals)) {
    return Status::InvalidArgument("observation vectors must be finite");
  }
  return Status::OK();
}

/// What a session needs to start, checked for submissions and for the
/// sessions a checkpoint restores alike.
Status ValidateSessionStart(size_t knob_dim, const Vector& default_theta,
                            const Observation& default_observation,
                            const Vector& meta_feature) {
  if (knob_dim == 0) {
    return Status::InvalidArgument("knob_dim must be positive");
  }
  if (default_theta.size() != knob_dim) {
    return Status::InvalidArgument("default_theta dimension mismatch");
  }
  if (default_observation.theta.size() != knob_dim) {
    return Status::InvalidArgument("default observation dimension mismatch");
  }
  // θ lives in the normalized knob box; a finite but huge coordinate
  // (say 1e154) would otherwise overflow the surrogate into NaN and trip
  // the acquisition optimizer's NaN contract at the first Recommend.
  for (const Vector* theta : {&default_theta, &default_observation.theta}) {
    for (double x : *theta) {
      if (!(x >= 0.0 && x <= 1.0)) {
        return Status::InvalidArgument("default theta must lie in [0, 1]");
      }
    }
  }
  if (!AllFinite(meta_feature)) {
    return Status::InvalidArgument("meta_feature must be finite");
  }
  return ValidateMetrics(default_observation);
}

/// Hard ceiling on speculative batch width — a fleet larger than this is a
/// client bug, and unbounded width would let one request spin the advisor
/// arbitrarily long.
constexpr int kMaxBatchWidth = 64;

KnobRecommendation MakeRecommendation(uint64_t session_id, uint64_t seq,
                                      const Vector& theta) {
  KnobRecommendation rec;
  rec.session_id = session_id;
  rec.iteration = static_cast<int>(seq);
  rec.theta = theta;
  return rec;
}

}  // namespace

ResTuneServer::ResTuneServer(ServerOptions options)
    : options_(options),
      session_safety_(options.use_event_sessions
                          ? options.safety
                          : SequentialSessionOptions().safety) {}

ResTuneServer::Session::Session(
    std::unique_ptr<ResTuneAdvisor> session_advisor,
    const SafetyOptions& safety)
    : advisor(std::move(session_advisor)),
      // The strict verdict is exact feasibility, and seqs are the 1-based
      // wire iterations.
      core(advisor.get(), safety, /*sla_tolerance=*/0.0, /*first_seq=*/1) {}

Status ResTuneServer::AddHistoricalTask(TuningTask task) {
  MutexLock lock(&mu_);
  return repository_.AddTask(std::move(task));
}

std::vector<BaseLearner> ResTuneServer::TrainSessionLearners(
    size_t knob_dim, size_t repository_snapshot) const {
  // Knowledge extraction: base-learners over histories with a matching
  // knob space (dimension is the compatibility proxy in this in-process
  // server; a deployment would key on a space identifier). Only the first
  // `repository_snapshot` tasks participate, so checkpoint replay trains
  // the exact ensemble the session originally saw even if more tasks were
  // archived afterwards.
  size_t index = 0;
  return repository_.TrainBaseLearners([&](const TuningTask& t) {
    const size_t i = index++;
    return i < repository_snapshot && !t.observations.empty() &&
           t.observations[0].theta.size() == knob_dim;
  });
}

Result<ResTuneServer::Session> ResTuneServer::OpenSession(
    const std::string& task_name, const Vector& meta_feature, size_t knob_dim,
    const Vector& default_theta, const Observation& default_observation,
    const SlaConstraints& sla, size_t repository_snapshot) const {
  RESTUNE_RETURN_IF_ERROR(ValidateSessionStart(
      knob_dim, default_theta, default_observation, meta_feature));
  Session session(std::make_unique<ResTuneAdvisor>(
                      knob_dim, default_theta,
                      TrainSessionLearners(knob_dim, repository_snapshot),
                      meta_feature, options_.advisor),
                  session_safety_);
  session.task_name = task_name;
  session.meta_feature = meta_feature;
  session.repository_snapshot = repository_snapshot;
  session.observations.push_back(default_observation);
  RESTUNE_RETURN_IF_ERROR(
      session.core.Begin(default_observation, sla, default_theta));
  return session;
}

Result<uint64_t> ResTuneServer::StartSession(
    const TargetTaskSubmission& submission) {
  MutexLock lock(&mu_);
  RESTUNE_ASSIGN_OR_RETURN(
      Session session,
      OpenSession(submission.task_name, submission.meta_feature,
                  submission.knob_dim, submission.default_theta,
                  submission.default_observation,
                  SlaConstraints{submission.default_observation.tps,
                                 submission.default_observation.lat},
                  repository_.num_tasks()));
  const uint64_t id = next_session_id_++;
  sessions_.emplace(id, std::move(session));
  MaybeAutoCheckpoint();
  return id;
}

Result<KnobRecommendation> ResTuneServer::Recommend(uint64_t session_id) {
  MutexLock lock(&mu_);
  if (finished_.count(session_id) > 0) {
    return Status::FailedPrecondition(
        StringPrintf("session %llu already finished",
                     (unsigned long long)session_id));
  }
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound(StringPrintf("no session %llu",
                                         (unsigned long long)session_id));
  }
  Session& session = it->second;
  // At-least-once delivery: while recommendations are outstanding,
  // re-asking returns the oldest instead of advancing the advisor — a
  // client retry after a lost response must not burn iterations or fork
  // the GP state.
  const std::map<uint64_t, Vector>& outstanding = session.core.outstanding();
  if (!outstanding.empty()) {
    const auto& [seq, theta] = *outstanding.begin();
    return MakeRecommendation(session_id, seq, theta);
  }
  return IssueRecommendation(session_id, &session);
}

Result<KnobRecommendation> ResTuneServer::IssueRecommendation(
    uint64_t session_id, Session* session) {
  // Constant-liar batching: the core penalizes the suggestion near every θ
  // still awaiting its report, so a speculative batch diversifies instead
  // of re-proposing the same optimum `width` times.
  RESTUNE_ASSIGN_OR_RETURN(const EventRecord launch, session->core.Launch());
  MaybeAutoCheckpoint();
  return MakeRecommendation(session_id, launch.seq, launch.theta);
}

Result<std::vector<KnobRecommendation>> ResTuneServer::RecommendBatch(
    uint64_t session_id, int width) {
  MutexLock lock(&mu_);
  if (width < 1 || width > kMaxBatchWidth) {
    return Status::InvalidArgument(
        StringPrintf("batch width must be in [1, %d]", kMaxBatchWidth));
  }
  if (finished_.count(session_id) > 0) {
    return Status::FailedPrecondition(
        StringPrintf("session %llu already finished",
                     (unsigned long long)session_id));
  }
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound(StringPrintf("no session %llu",
                                         (unsigned long long)session_id));
  }
  Session& session = it->second;
  while (session.core.outstanding().size() < static_cast<size_t>(width)) {
    RESTUNE_RETURN_IF_ERROR(
        IssueRecommendation(session_id, &session).status());
  }
  std::vector<KnobRecommendation> batch;
  batch.reserve(session.core.outstanding().size());
  for (const auto& [seq, theta] : session.core.outstanding()) {
    batch.push_back(MakeRecommendation(session_id, seq, theta));
  }
  return batch;
}

Status ResTuneServer::ReportEvaluation(const EvaluationReport& report) {
  MutexLock lock(&mu_);
  if (finished_.count(report.session_id) > 0) {
    return Status::FailedPrecondition("session already finished");
  }
  const auto it = sessions_.find(report.session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session in evaluation report");
  }
  Session& session = it->second;
  const int issued = static_cast<int>(session.core.launches());
  if (report.iteration <= 0 || report.iteration > issued) {
    return Status::InvalidArgument(
        StringPrintf("report for iteration %d, but session is at %d",
                     report.iteration, issued));
  }
  const uint64_t seq = static_cast<uint64_t>(report.iteration);
  if (session.core.outstanding().count(seq) == 0) {
    // The iteration was already processed — a duplicate from a client retry.
    return Status::OK();
  }

  CompletionOutcome outcome;
  if (report.fault != FaultKind::kNone) {
    // The replay failed; there are no metrics. The recommended θ (not
    // whatever the client echoed back) is what failed, and it becomes
    // constraint evidence for the advisor.
    outcome.failed = true;
    outcome.fault = report.fault;
  } else {
    if (report.observation.theta.size() !=
        session.core.baseline_theta().size()) {
      return Status::InvalidArgument("report theta dimension mismatch");
    }
    RESTUNE_RETURN_IF_ERROR(ValidateMetrics(report.observation));
    outcome.observation = report.observation;
  }
  RESTUNE_RETURN_IF_ERROR(session.core.Complete(seq, outcome).status());
  if (!outcome.failed) session.observations.push_back(report.observation);
  MaybeAutoCheckpoint();
  return Status::OK();
}

Result<SessionSummary> ResTuneServer::FinishSession(uint64_t session_id) {
  MutexLock lock(&mu_);
  const auto done = finished_.find(session_id);
  if (done != finished_.end()) {
    return done->second;  // idempotent finish
  }
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session");
  }
  Session& session = it->second;
  SessionSummary summary;
  summary.session_id = session_id;
  summary.iterations = static_cast<int>(session.core.launches());
  summary.best_theta = session.core.best_theta();
  summary.best_feasible_res = session.core.best_feasible_res();

  if (options_.archive_finished_sessions &&
      session.observations.size() >= options_.min_observations_to_archive) {
    TuningTask task;
    task.name = session.task_name;
    task.workload = session.task_name;
    task.hardware = "client";
    task.meta_feature = session.meta_feature;
    task.observations = std::move(session.observations);
    summary.archived_to_repository = repository_.AddTask(std::move(task)).ok();
  }
  sessions_.erase(it);
  finished_.emplace(session_id, summary);
  MaybeAutoCheckpoint();
  return summary;
}

void ResTuneServer::MaybeAutoCheckpoint() {
  ++mutations_;
  if (options_.checkpoint_path.empty() || options_.checkpoint_period <= 0) {
    return;
  }
  if (mutations_ % static_cast<uint64_t>(options_.checkpoint_period) != 0) {
    return;
  }
  // The lock is already held here; re-entering the public
  // SaveCheckpointFile would self-deadlock on the non-reentrant mutex —
  // exactly the bug class the REQUIRES annotations turn into a compile
  // error under clang -Wthread-safety.
  const Status st = SaveCheckpointFileLocked(options_.checkpoint_path);
  if (!st.ok()) {
    RESTUNE_LOG(kWarning) << "server auto-checkpoint failed: "
                          << st.ToString();
  }
}

std::string ResTuneServer::EncodeCheckpointLocked() const {
  ByteWriter out;
  // One allocation instead of a doubling series: the last checkpoint's
  // size plus an eighth, so a checkpoint that grew a little still fits.
  out.Reserve(last_checkpoint_bytes_ + last_checkpoint_bytes_ / 8);
  out.PutU64(next_session_id_);
  out.PutU32(static_cast<uint32_t>(repository_.num_tasks()));
  for (const TuningTask& task : repository_.tasks()) {
    WriteTuningTask(&out, task);
  }
  out.PutU32(static_cast<uint32_t>(finished_.size()));
  for (const auto& [id, summary] : finished_) WriteSummary(&out, summary);
  out.PutU32(static_cast<uint32_t>(sessions_.size()));
  for (const auto& [id, session] : sessions_) {
    const SessionCore& core = session.core;
    out.PutU64(id);
    out.PutU64(core.baseline_theta().size());  // the knob dimension
    out.PutI64(static_cast<int64_t>(core.launches()));
    out.PutU64(session.repository_snapshot);
    out.PutBool(true);  // a best feasible config exists: the default one
    out.PutString(session.task_name);
    out.PutVector(session.meta_feature);
    WriteSlaConstraints(&out, core.sla());
    out.PutVector(core.baseline_theta());
    WriteObservation(&out, core.default_observation());
    // The log IS the durable session: outstanding recommendations are the
    // launches without a matching completion and are re-derived at load.
    out.PutU32(static_cast<uint32_t>(core.log().size()));
    for (const EventRecord& event : core.log()) WriteEventRecord(&out, event);
  }
  last_checkpoint_bytes_ = out.str().size();
  return out.Take();
}

Status ResTuneServer::SaveCheckpoint(std::ostream* out) const {
  std::string payload;
  {
    MutexLock lock(&mu_);
    payload = EncodeCheckpointLocked();
  }
  return WriteSealed(FileKind::kServerCheckpoint, payload, out);
}

Status ResTuneServer::LoadCheckpoint(std::istream* in) {
  RESTUNE_ASSIGN_OR_RETURN(const std::string payload,
                           ReadSealed(FileKind::kServerCheckpoint, in));
  return RestoreCheckpoint(payload);
}

Status ResTuneServer::RestoreCheckpoint(std::string_view payload) {
  MutexLock lock(&mu_);
  ByteReader in(payload);
  uint64_t next_id = 1;
  RESTUNE_RETURN_IF_ERROR(in.GetU64(&next_id));

  // Counts are checked against the smallest encoding of their element: a
  // task (20 bytes) and a summary (29).
  DataRepository repository;
  uint32_t count = 0;
  RESTUNE_RETURN_IF_ERROR(in.GetCount(&count, 20));
  for (uint32_t i = 0; i < count; ++i) {
    TuningTask task;
    RESTUNE_RETURN_IF_ERROR(ReadTuningTask(&in, &task));
    RESTUNE_RETURN_IF_ERROR(repository.AddTask(std::move(task)));
  }
  std::map<uint64_t, SessionSummary> finished;
  RESTUNE_RETURN_IF_ERROR(in.GetCount(&count, 29));
  for (uint32_t i = 0; i < count; ++i) {
    SessionSummary summary;
    RESTUNE_RETURN_IF_ERROR(ReadSummary(&in, &summary));
    finished.emplace(summary.session_id, std::move(summary));
  }

  // Sessions need the restored repository for base-learner training, so
  // swap it in before replay; all other members are only replaced once the
  // whole checkpoint parses.
  DataRepository previous_repository = std::move(repository_);
  repository_ = std::move(repository);

  std::map<uint64_t, Session> sessions;
  const Status status = RestoreSessions(&in, &sessions);
  if (!status.ok()) {
    repository_ = std::move(previous_repository);  // leave the server as-was
    return status;
  }
  sessions_ = std::move(sessions);
  finished_ = std::move(finished);
  next_session_id_ = next_id;
  return Status::OK();
}

Status ResTuneServer::RestoreSessions(ByteReader* in,
                                      std::map<uint64_t, Session>* sessions) {
  // A member rather than a lambda inside RestoreCheckpoint: the
  // thread-safety analysis treats a lambda body as a separate function, so
  // the caller's lock would be invisible and every OpenSession call would
  // warn. Counts are checked against the smallest session (97 bytes) and
  // event record (16).
  uint32_t count = 0;
  RESTUNE_RETURN_IF_ERROR(in->GetCount(&count, 97));
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    uint64_t knob_dim = 0;
    int64_t iteration = 0;
    uint64_t repository_snapshot = 0;
    bool has_feasible = false;  // always written true; nothing to restore
    std::string task_name;
    Vector meta_feature;
    SlaConstraints sla;
    Vector default_theta;
    Observation default_observation;
    RESTUNE_RETURN_IF_ERROR(in->GetU64(&id));
    RESTUNE_RETURN_IF_ERROR(in->GetU64(&knob_dim));
    RESTUNE_RETURN_IF_ERROR(in->GetI64(&iteration));
    RESTUNE_RETURN_IF_ERROR(in->GetU64(&repository_snapshot));
    RESTUNE_RETURN_IF_ERROR(in->GetBool(&has_feasible));
    RESTUNE_RETURN_IF_ERROR(in->GetString(&task_name));
    RESTUNE_RETURN_IF_ERROR(in->GetVector(&meta_feature));
    RESTUNE_RETURN_IF_ERROR(ReadSlaConstraints(in, &sla));
    RESTUNE_RETURN_IF_ERROR(in->GetVector(&default_theta));
    RESTUNE_RETURN_IF_ERROR(ReadObservation(in, &default_observation));
    uint32_t num_events = 0;
    RESTUNE_RETURN_IF_ERROR(in->GetCount(&num_events, 16));
    std::vector<EventRecord> log(num_events);
    for (EventRecord& event : log) {
      RESTUNE_RETURN_IF_ERROR(ReadEventRecord(in, &event));
      if (event.kind == EventKind::kComplete && !event.failed) {
        if (event.observation.theta.size() != knob_dim) {
          return Status::FailedPrecondition(
              "server checkpoint completion " + std::to_string(event.seq) +
              " has a theta of the wrong dimension");
        }
        RESTUNE_RETURN_IF_ERROR(ValidateMetrics(event.observation));
      }
    }
    if (repository_snapshot > repository_.num_tasks()) {
      return Status::FailedPrecondition(
          "server checkpoint session trained on more tasks than it stores");
    }
    RESTUNE_ASSIGN_OR_RETURN(
        Session session,
        OpenSession(task_name, meta_feature, static_cast<size_t>(knob_dim),
                    default_theta, default_observation, sla,
                    static_cast<size_t>(repository_snapshot)));
    RESTUNE_RETURN_IF_ERROR(session.core.Replay(
        log, [&session](const EventRecord& completion, const Vector&) {
          if (!completion.failed) {
            session.observations.push_back(completion.observation);
          }
        }));
    // The stored iteration is the next Recommend's predecessor; one that
    // disagrees with the log would wedge the session.
    if (static_cast<uint64_t>(iteration) != session.core.launches()) {
      return Status::FailedPrecondition(StringPrintf(
          "server checkpoint session %llu is at iteration %lld but its log "
          "holds %llu launches",
          (unsigned long long)id, (long long)iteration,
          (unsigned long long)session.core.launches()));
    }
    sessions->emplace(id, std::move(session));
  }
  return in->ExpectEnd();
}

Status ResTuneServer::SaveCheckpointFile(const std::string& path) const {
  MutexLock lock(&mu_);
  return SaveCheckpointFileLocked(path);
}

Status ResTuneServer::SaveCheckpointFileLocked(const std::string& path) const {
  return SaveSealedFile(path, FileKind::kServerCheckpoint,
                        EncodeCheckpointLocked());
}

Status ResTuneServer::LoadCheckpointFile(const std::string& path) {
  RESTUNE_ASSIGN_OR_RETURN(
      const std::string payload,
      LoadSealedFile(path, FileKind::kServerCheckpoint));
  return RestoreCheckpoint(payload);
}

std::string ResTuneServer::MetricsText() const {
  size_t active = 0;
  size_t finished = 0;
  size_t tasks = 0;
  {
    // Read the sizes under the server lock, but render the registry text
    // outside it: PrometheusText takes the registry's own mutex, and
    // holding both at once would establish a lock order for no benefit.
    MutexLock lock(&mu_);
    active = sessions_.size();
    finished = finished_.size();
    tasks = repository_.num_tasks();
  }
  auto* registry = obs::MetricsRegistry::Global();
  registry->GetGauge("restune_server_active_sessions")
      ->Set(static_cast<double>(active));
  registry->GetGauge("restune_server_finished_sessions")
      ->Set(static_cast<double>(finished));
  registry->GetGauge("restune_server_repository_tasks")
      ->Set(static_cast<double>(tasks));
  return registry->PrometheusText();
}

}  // namespace restune
