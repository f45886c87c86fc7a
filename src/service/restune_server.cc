#include "service/restune_server.h"

#include <cmath>

#include "common/contracts.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "service/wire.h"

namespace restune {
namespace {

using internal::AllFinite;

bool BitwiseEqual(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

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

}  // namespace

ResTuneServer::ResTuneServer(ServerOptions options)
    : options_(options) {}

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

Result<uint64_t> ResTuneServer::StartSession(
    const TargetTaskSubmission& submission) {
  MutexLock lock(&mu_);
  RESTUNE_RETURN_IF_ERROR(ValidateSessionStart(
      submission.knob_dim, submission.default_theta,
      submission.default_observation, submission.meta_feature));

  Session session;
  session.task_name = submission.task_name;
  session.meta_feature = submission.meta_feature;
  session.knob_dim = submission.knob_dim;
  session.default_theta = submission.default_theta;
  session.default_observation = submission.default_observation;
  session.repository_snapshot = repository_.num_tasks();
  session.advisor = std::make_unique<ResTuneAdvisor>(
      submission.knob_dim, submission.default_theta,
      TrainSessionLearners(session.knob_dim, session.repository_snapshot),
      submission.meta_feature, options_.advisor);
  session.sla = SlaConstraints{submission.default_observation.tps,
                               submission.default_observation.lat};
  RESTUNE_RETURN_IF_ERROR(
      session.advisor->Begin(submission.default_observation, session.sla));
  session.observations.push_back(submission.default_observation);
  session.best_theta = submission.default_theta;
  session.best_feasible_res = submission.default_observation.res;
  session.has_feasible = true;
  if (options_.use_event_sessions) {
    session.safety = std::make_unique<SafetyController>(options_.safety);
    session.safety->SetBaseline(submission.default_theta,
                                submission.default_observation.res);
  }

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
  if (!session.outstanding.empty()) {
    const auto& [iteration, theta] = *session.outstanding.begin();
    KnobRecommendation rec;
    rec.session_id = session_id;
    rec.iteration = iteration;
    rec.theta = theta;
    return rec;
  }
  return IssueRecommendation(session_id, &session);
}

Result<KnobRecommendation> ResTuneServer::IssueRecommendation(
    uint64_t session_id, Session* session) {
  // Constant-liar batching: suggestions are penalized near every θ still
  // awaiting its report, so a speculative batch diversifies instead of
  // re-proposing the same optimum `width` times.
  std::vector<Vector> pending;
  pending.reserve(session->outstanding.size());
  for (const auto& [iteration, theta] : session->outstanding) {
    pending.push_back(theta);
  }

  EventRecord launch;
  launch.kind = EventKind::kLaunch;
  Vector theta;
  if (session->safety != nullptr) {
    // Event-session driver (tuner/event_session.cc semantics): frozen
    // sessions pin the last known-safe config — deliberately WITHOUT an
    // advisor call, so checkpoint replay does not consume advisor RNG for
    // the probe — and constrained sessions clamp suggestions into the
    // trust region around it.
    SessionMode mode = session->safety->mode();
    bool frozen = mode == SessionMode::kFrozen;
    if (frozen) {
      theta = session->safety->safe_theta();
    } else {
      if (mode == SessionMode::kConstrained) {
        session->advisor->SetTrustRegion(session->safety->safe_theta(),
                                         session->safety->trust_radius());
      } else {
        session->advisor->ClearTrustRegion();
      }
      Result<Vector> suggestion = session->advisor->SuggestNextAsync(pending);
      if (!suggestion.ok()) {
        if (suggestion.status().code() == StatusCode::kOutOfRange) {
          return suggestion.status();  // advisor exhausted: a real error
        }
        // Surrogate failure: drop to frozen and serve the safe config —
        // an always-on service keeps answering with something safe.
        mode = session->safety->OnAdvisorFailure();
        frozen = true;
        theta = session->safety->safe_theta();
      } else {
        theta = std::move(suggestion).value();
      }
    }
    launch.frozen = frozen;
    launch.mode = mode;
    launch.sla_violated = session->safety->sla_violated();
  } else {
    RESTUNE_ASSIGN_OR_RETURN(theta,
                             session->advisor->SuggestNextAsync(pending));
  }

  KnobRecommendation rec;
  rec.session_id = session_id;
  rec.iteration = ++session->iteration;
  rec.theta = theta;

  launch.seq = static_cast<uint64_t>(rec.iteration);
  launch.theta = theta;
  session->log.push_back(launch);
  session->outstanding.emplace(rec.iteration, std::move(theta));
  MaybeAutoCheckpoint();
  return rec;
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
  while (session.outstanding.size() < static_cast<size_t>(width)) {
    RESTUNE_RETURN_IF_ERROR(
        IssueRecommendation(session_id, &session).status());
  }
  std::vector<KnobRecommendation> batch;
  batch.reserve(session.outstanding.size());
  for (const auto& [iteration, theta] : session.outstanding) {
    KnobRecommendation rec;
    rec.session_id = session_id;
    rec.iteration = iteration;
    rec.theta = theta;
    batch.push_back(std::move(rec));
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
  if (report.iteration <= 0 || report.iteration > session.iteration) {
    return Status::InvalidArgument(
        StringPrintf("report for iteration %d, but session is at %d",
                     report.iteration, session.iteration));
  }
  const auto pending = session.outstanding.find(report.iteration);
  if (pending == session.outstanding.end()) {
    // The iteration was already processed — a duplicate from a client retry.
    return Status::OK();
  }

  EventRecord event;
  event.kind = EventKind::kComplete;
  event.seq = static_cast<uint64_t>(report.iteration);
  if (report.fault != FaultKind::kNone) {
    // The replay failed; there are no metrics. The recommended θ (not
    // whatever the client echoed back) is what failed, and it becomes
    // constraint evidence for the advisor.
    event.failed = true;
    event.fault = report.fault;
    EvaluationFault fault;
    fault.kind = report.fault;
    fault.message = "client-reported evaluation failure";
    RESTUNE_RETURN_IF_ERROR(
        session.advisor->ObserveFailure(pending->second, fault));
  } else {
    if (report.observation.theta.size() != session.knob_dim) {
      return Status::InvalidArgument("report theta dimension mismatch");
    }
    RESTUNE_RETURN_IF_ERROR(ValidateMetrics(report.observation));
    RESTUNE_RETURN_IF_ERROR(session.advisor->Observe(report.observation));
    event.observation = report.observation;
    session.observations.push_back(report.observation);
    if (session.sla.IsFeasible(report.observation) &&
        report.observation.res < session.best_feasible_res) {
      session.best_feasible_res = report.observation.res;
      session.best_theta = report.observation.theta;
      session.has_feasible = true;
    }
  }
  if (session.safety != nullptr) {
    // Two-tolerance rule: the strict verdict gates safe-config updates,
    // the lenient one feeds the violation monitor (exploration on the
    // constraint boundary routinely dips a few percent infeasible).
    const bool feasible =
        !event.failed &&
        session.sla.IsFeasible(event.observation, options_.sla_tolerance);
    const bool sla_ok =
        !event.failed &&
        session.sla.IsFeasible(event.observation,
                               options_.safety.monitor_tolerance);
    event.mode_after = session.safety->OnCompletion(
        pending->second, event.failed, feasible, sla_ok,
        event.observation.res);
    event.sla_violated_after = session.safety->sla_violated();
  }
  session.log.push_back(std::move(event));
  session.outstanding.erase(pending);
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
  summary.iterations = session.iteration;
  summary.best_theta = session.best_theta;
  summary.best_feasible_res = session.best_feasible_res;

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
  out.PutU64(next_session_id_);
  out.PutU32(static_cast<uint32_t>(repository_.num_tasks()));
  for (const TuningTask& task : repository_.tasks()) {
    WriteTuningTask(&out, task);
  }
  out.PutU32(static_cast<uint32_t>(finished_.size()));
  for (const auto& [id, summary] : finished_) WriteSummary(&out, summary);
  out.PutU32(static_cast<uint32_t>(sessions_.size()));
  for (const auto& [id, session] : sessions_) {
    out.PutU64(id);
    out.PutU64(session.knob_dim);
    out.PutI64(session.iteration);
    out.PutU64(session.repository_snapshot);
    out.PutBool(session.has_feasible);
    out.PutString(session.task_name);
    out.PutVector(session.meta_feature);
    WriteSlaConstraints(&out, session.sla);
    out.PutVector(session.default_theta);
    WriteObservation(&out, session.default_observation);
    // The log IS the durable session: outstanding recommendations are the
    // launches without a matching completion and are re-derived at load.
    out.PutU32(static_cast<uint32_t>(session.log.size()));
    for (const EventRecord& event : session.log) WriteEventRecord(&out, event);
  }
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

Result<ResTuneServer::Session> ResTuneServer::RebuildSession(
    Session blueprint) const {
  RESTUNE_RETURN_IF_ERROR(ValidateSessionStart(
      blueprint.knob_dim, blueprint.default_theta,
      blueprint.default_observation, blueprint.meta_feature));
  if (blueprint.repository_snapshot > repository_.num_tasks()) {
    return Status::FailedPrecondition(
        "server checkpoint session trained on more tasks than it stores");
  }
  Session session = std::move(blueprint);
  session.advisor = std::make_unique<ResTuneAdvisor>(
      session.knob_dim, session.default_theta,
      TrainSessionLearners(session.knob_dim, session.repository_snapshot),
      session.meta_feature, options_.advisor);
  RESTUNE_RETURN_IF_ERROR(
      session.advisor->Begin(session.default_observation, session.sla));
  session.observations.clear();
  session.observations.push_back(session.default_observation);
  session.best_theta = session.default_theta;
  session.best_feasible_res = session.default_observation.res;
  if (options_.use_event_sessions) {
    session.safety = std::make_unique<SafetyController>(options_.safety);
    session.safety->SetBaseline(session.default_theta,
                                session.default_observation.res);
  } else {
    session.safety.reset();
  }

  // Replay the totally ordered launch/completion log through the fresh
  // advisor. Launches re-run the (pending-penalized) suggestion and must
  // match the recorded θ bitwise — the checkpoint stores doubles by bit
  // pattern, so any mismatch means the server was reconstructed with
  // different advisor options or a different repository and continuing
  // would silently fork every session. Completions feed the advisor in the
  // same out-of-order arrival sequence the original server saw.
  session.outstanding.clear();
  for (const EventRecord& event : session.log) {
    const int iteration = static_cast<int>(event.seq);
    if (event.kind == EventKind::kLaunch) {
      Vector theta;
      if (session.safety != nullptr) {
        if (event.mode == SessionMode::kFrozen &&
            session.safety->mode() != SessionMode::kFrozen && event.frozen) {
          // Frozen at launch while the replayed ladder was not: the
          // original launch hit an advisor failure; mirror the transition
          // so the recomputed mode matches the record.
          session.safety->OnAdvisorFailure();
        }
        if (event.mode != session.safety->mode()) {
          return Status::FailedPrecondition(
              "server checkpoint safety replay diverged at iteration " +
              std::to_string(iteration) + ": recorded mode '" +
              SessionModeName(event.mode) + "', replayed '" +
              SessionModeName(session.safety->mode()) + "'");
        }
        if (event.frozen) {
          // Frozen probe: no advisor call happened at record time, so the
          // replay must not consume advisor RNG either.
          theta = session.safety->safe_theta();
        } else if (event.mode == SessionMode::kConstrained) {
          session.advisor->SetTrustRegion(session.safety->safe_theta(),
                                          session.safety->trust_radius());
        } else {
          session.advisor->ClearTrustRegion();
        }
      }
      if (theta.empty()) {
        std::vector<Vector> pending;
        pending.reserve(session.outstanding.size());
        for (const auto& [it, pending_theta] : session.outstanding) {
          pending.push_back(pending_theta);
        }
        RESTUNE_ASSIGN_OR_RETURN(theta,
                                 session.advisor->SuggestNextAsync(pending));
      }
      if (!BitwiseEqual(theta, event.theta)) {
        return Status::FailedPrecondition(
            "server checkpoint replay diverged at iteration " +
            std::to_string(iteration) +
            "; the server was not reconstructed with the original options");
      }
      session.outstanding.emplace(iteration, theta);
      continue;
    }
    const auto pending = session.outstanding.find(iteration);
    if (pending == session.outstanding.end()) {
      return Status::FailedPrecondition(
          "server checkpoint completion " + std::to_string(iteration) +
          " has no matching launch");
    }
    if (event.failed) {
      EvaluationFault fault;
      fault.kind = event.fault;
      fault.message = "replayed from server checkpoint";
      RESTUNE_RETURN_IF_ERROR(
          session.advisor->ObserveFailure(pending->second, fault));
    } else {
      if (event.observation.theta.size() != session.knob_dim) {
        return Status::FailedPrecondition(
            "server checkpoint completion " + std::to_string(iteration) +
            " has a theta of the wrong dimension");
      }
      RESTUNE_RETURN_IF_ERROR(ValidateMetrics(event.observation));
      RESTUNE_RETURN_IF_ERROR(session.advisor->Observe(event.observation));
      session.observations.push_back(event.observation);
      if (session.sla.IsFeasible(event.observation) &&
          event.observation.res < session.best_feasible_res) {
        session.best_feasible_res = event.observation.res;
        session.best_theta = event.observation.theta;
      }
    }
    if (session.safety != nullptr) {
      const bool feasible =
          !event.failed &&
          session.sla.IsFeasible(event.observation, options_.sla_tolerance);
      const bool sla_ok =
          !event.failed &&
          session.sla.IsFeasible(event.observation,
                                 options_.safety.monitor_tolerance);
      const SessionMode after = session.safety->OnCompletion(
          pending->second, event.failed, feasible, sla_ok,
          event.observation.res);
      if (after != event.mode_after ||
          session.safety->sla_violated() != event.sla_violated_after) {
        return Status::FailedPrecondition(
            "server checkpoint safety replay diverged at completion " +
            std::to_string(iteration) + ": recorded mode_after '" +
            SessionModeName(event.mode_after) + "', replayed '" +
            SessionModeName(after) + "'");
      }
    }
    session.outstanding.erase(pending);
  }
  return session;
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
  // the caller's lock would be invisible and every RebuildSession call
  // would warn. Counts are checked against the smallest session (97
  // bytes) and event record (16).
  uint32_t count = 0;
  RESTUNE_RETURN_IF_ERROR(in->GetCount(&count, 97));
  for (uint32_t i = 0; i < count; ++i) {
    Session blueprint;
    uint64_t id = 0;
    uint64_t knob_dim = 0;
    int64_t iteration = 0;
    uint64_t repository_snapshot = 0;
    RESTUNE_RETURN_IF_ERROR(in->GetU64(&id));
    RESTUNE_RETURN_IF_ERROR(in->GetU64(&knob_dim));
    RESTUNE_RETURN_IF_ERROR(in->GetI64(&iteration));
    RESTUNE_RETURN_IF_ERROR(in->GetU64(&repository_snapshot));
    blueprint.knob_dim = static_cast<size_t>(knob_dim);
    blueprint.iteration = static_cast<int>(iteration);
    blueprint.repository_snapshot = static_cast<size_t>(repository_snapshot);
    RESTUNE_RETURN_IF_ERROR(in->GetBool(&blueprint.has_feasible));
    RESTUNE_RETURN_IF_ERROR(in->GetString(&blueprint.task_name));
    RESTUNE_RETURN_IF_ERROR(in->GetVector(&blueprint.meta_feature));
    RESTUNE_RETURN_IF_ERROR(ReadSlaConstraints(in, &blueprint.sla));
    RESTUNE_RETURN_IF_ERROR(in->GetVector(&blueprint.default_theta));
    RESTUNE_RETURN_IF_ERROR(
        ReadObservation(in, &blueprint.default_observation));
    uint32_t num_events = 0;
    RESTUNE_RETURN_IF_ERROR(in->GetCount(&num_events, 16));
    blueprint.log.resize(num_events);
    for (EventRecord& event : blueprint.log) {
      RESTUNE_RETURN_IF_ERROR(ReadEventRecord(in, &event));
    }
    RESTUNE_ASSIGN_OR_RETURN(Session session,
                             RebuildSession(std::move(blueprint)));
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
