#include "tuner/event_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

struct EventSessionMetrics {
  obs::Counter* launches;
  obs::Counter* completions;
  obs::Counter* watchdog_kills;
  obs::Counter* frozen_probes;
  obs::Counter* advisor_failures;
  obs::Counter* checkpoints;
  obs::Counter* resumes;
  obs::Gauge* in_flight;

  static EventSessionMetrics* Get() {
    static EventSessionMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new EventSessionMetrics();
      metrics->launches =
          registry->GetCounter("restune_event_launches_total");
      metrics->completions =
          registry->GetCounter("restune_event_completions_total");
      metrics->watchdog_kills =
          registry->GetCounter("restune_event_watchdog_kills_total");
      metrics->frozen_probes =
          registry->GetCounter("restune_event_frozen_probes_total");
      metrics->advisor_failures =
          registry->GetCounter("restune_event_advisor_failures_total");
      metrics->checkpoints =
          registry->GetCounter("restune_event_checkpoints_total");
      metrics->resumes = registry->GetCounter("restune_event_resumes_total");
      metrics->in_flight = registry->GetGauge("restune_event_in_flight");
      return metrics;
    }();
    return m;
  }
};

std::string JsonVector(const Vector& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += StringPrintf("%.17g", v[i]);
  }
  out += ']';
  return out;
}

/// Emits a `{"type":"event",...}` line into the trace. `body()` returns the
/// comma-joined tail of the JSON object; it runs only when tracing is on,
/// so an untraced session never formats an event.
template <typename BodyFn>
void TraceEvent(BodyFn&& body) {
  obs::Tracer* tracer = obs::Tracer::Global();
  if (!tracer->enabled()) return;
  tracer->RecordLine("{\"type\":\"event\"," + body() + "}");
}

}  // namespace

EventSessionOptions SequentialSessionOptions() {
  EventSessionOptions options;
  options.max_in_flight = 1;
  options.safety.sla.trip_count = options.safety.sla.window + 1;
  options.safety.constrain_after_failures = std::numeric_limits<int>::max();
  return options;
}

EventTuningSession::EventTuningSession(DbInstanceSimulator* simulator,
                                       Advisor* advisor,
                                       EventSessionOptions options)
    : simulator_(simulator),
      advisor_(advisor),
      options_(options),
      core_(MakeCore()) {}

SessionCore EventTuningSession::MakeCore() const {
  return SessionCore(advisor_, options_.safety, options_.sla_tolerance,
                     /*first_seq=*/0);
}

Result<SessionResult> EventTuningSession::Run() { return RunInternal(nullptr); }

Result<SessionResult> EventTuningSession::Resume() {
  if (options_.fault.checkpoint_path.empty()) {
    return Status::FailedPrecondition(
        "Resume requires fault.checkpoint_path to be set");
  }
  RESTUNE_ASSIGN_OR_RETURN(
      const EventSessionCheckpoint checkpoint,
      LoadEventSessionCheckpointFile(options_.fault.checkpoint_path));
  return RunInternal(&checkpoint);
}

double EventTuningSession::WatchdogDeadline() const {
  return options_.watchdog_deadline_seconds > 0.0
             ? options_.watchdog_deadline_seconds
             : options_.watchdog_multiplier *
                   simulator_->options().replay_seconds;
}

namespace {

/// Heap order of the delivery queue: earliest delivery first, ties by seq.
bool DeliversLater(const InFlightRecord& a, const InFlightRecord& b) {
  if (a.delivery_seconds != b.delivery_seconds) {
    return a.delivery_seconds > b.delivery_seconds;
  }
  return a.seq > b.seq;
}

}  // namespace

void EventTuningSession::PushPending(InFlightRecord eval) {
  pending_.push_back(std::move(eval));
  std::push_heap(pending_.begin(), pending_.end(), DeliversLater);
  EventSessionMetrics::Get()->in_flight->Set(
      static_cast<double>(pending_.size()));
}

InFlightRecord EventTuningSession::PopPending() {
  std::pop_heap(pending_.begin(), pending_.end(), DeliversLater);
  InFlightRecord eval = std::move(pending_.back());
  pending_.pop_back();
  EventSessionMetrics::Get()->in_flight->Set(
      static_cast<double>(pending_.size()));
  return eval;
}

Result<bool> EventTuningSession::Launch(EvaluationSupervisor* supervisor) {
  RESTUNE_TRACE_SPAN("session.launch");
  const bool was_frozen = core_.safety().mode() == SessionMode::kFrozen;
  Result<EventRecord> launched = core_.Launch();
  if (!launched.ok()) {
    if (launched.status().code() == StatusCode::kOutOfRange) {
      return false;  // advisor exhausted (grid search ran out)
    }
    return launched.status();
  }
  const EventRecord& launch = *launched;
  EventSessionMetrics* metrics = EventSessionMetrics::Get();
  if (launch.frozen) {
    if (!was_frozen) metrics->advisor_failures->Add();
    metrics->frozen_probes->Add();
  }
  metrics->launches->Add();
  TraceEvent([&] {
    std::string body = StringPrintf(
        "\"event\":\"launch\",\"seq\":%llu,\"mode\":\"%s\","
        "\"sla_violated\":%d,\"frozen\":%d",
        static_cast<unsigned long long>(launch.seq),
        SessionModeName(launch.mode), launch.sla_violated ? 1 : 0,
        launch.frozen ? 1 : 0);
    body += ",\"theta\":" + JsonVector(launch.theta);
    if (launch.mode != SessionMode::kHealthy) {
      body += ",\"trust_center\":" + JsonVector(core_.safety().safe_theta());
      body += StringPrintf(",\"trust_radius\":%.17g",
                           core_.safety().trust_radius());
    }
    return body;
  });

  // Eager evaluation: the outcome is computed at launch (RNG consumed in
  // launch order — thread-count invariant) but delivered later, when the
  // session clock reaches delivery_seconds.
  RESTUNE_ASSIGN_OR_RETURN(const SupervisedEvaluation supervised,
                           supervisor->Evaluate(launch.theta));
  InFlightRecord pend;
  pend.seq = launch.seq;
  pend.attempts = supervised.attempts;
  pend.backoff_seconds = supervised.backoff_seconds;
  pend.elapsed_seconds = supervised.elapsed_seconds;
  if (supervised.outcome.ok()) {
    pend.observation = supervised.outcome.observation();
  } else {
    pend.failed = true;
    pend.fault = supervised.outcome.fault().kind;
  }
  // Watchdog: a slot still pending at its deadline is cancelled. Stalls
  // never complete on their own, so they are always cut at the deadline;
  // anything else that outlived it is reclassified as a timeout — even a
  // "successful" result, which by then nobody is waiting for.
  const double deadline = WatchdogDeadline();
  if (pend.fault == FaultKind::kStall || pend.elapsed_seconds > deadline) {
    pend.watchdog_killed = true;
    pend.failed = true;
    if (pend.fault != FaultKind::kStall) pend.fault = FaultKind::kTimeout;
    pend.elapsed_seconds = deadline;
    metrics->watchdog_kills->Add();
  }
  pend.delivery_seconds = clock_seconds_ + pend.elapsed_seconds;
  PushPending(std::move(pend));
  PublishProgress();
  return true;
}

EventSessionProgress EventTuningSession::progress() const {
  MutexLock lock(&progress_mu_);
  return progress_;
}

void EventTuningSession::PublishProgress() {
  MutexLock lock(&progress_mu_);
  progress_.completed = core_.completions();
  progress_.launched = core_.launches();
  progress_.in_flight = pending_.size();
  progress_.clock_seconds = clock_seconds_;
  progress_.mode = core_.safety().mode();
}

void EventTuningSession::ApplyCompletion(SessionResult* result,
                                         const EventRecord& completion,
                                         const Vector& theta) {
  IterationRecord rec;
  rec.iteration = core_.completions();
  rec.failed = completion.failed;
  rec.fault = completion.fault;
  rec.attempts = completion.attempts;
  rec.backoff_seconds = completion.backoff_seconds;
  rec.replay_seconds = simulator_->options().replay_seconds;
  if (completion.failed) {
    rec.observation.theta = theta;
    ++result->failed_iterations;
  } else {
    rec.observation = completion.observation;
  }
  rec.feasible = core_.Feasible(completion);
  result->best_feasible_res = core_.best_feasible_res();
  result->best_theta = core_.best_theta();
  result->best_iteration = core_.best_completion();
  rec.best_feasible_res = result->best_feasible_res;
  result->total_retries += completion.attempts - 1;
  result->history.push_back(rec);
}

Status EventTuningSession::Ingest(SessionResult* result) {
  RESTUNE_TRACE_SPAN("session.ingest");
  const InFlightRecord eval = PopPending();
  clock_seconds_ = std::max(clock_seconds_, eval.delivery_seconds);
  EventSessionMetrics::Get()->completions->Add();

  const Vector theta = core_.outstanding().at(eval.seq);
  const SessionMode before = core_.safety().mode();
  RESTUNE_ASSIGN_OR_RETURN(const EventRecord complete,
                           core_.Complete(eval.seq, eval));
  const SessionMode after = complete.mode_after;
  TraceEvent([&] {
    return StringPrintf(
        "\"event\":\"complete\",\"seq\":%llu,\"iteration\":%d,"
        "\"failed\":%d,\"fault\":\"%s\",\"watchdog_killed\":%d,"
        "\"feasible\":%d,\"mode_after\":\"%s\",\"sla_violated_after\":%d",
        static_cast<unsigned long long>(eval.seq), core_.completions(),
        eval.failed ? 1 : 0, FaultKindName(eval.fault),
        eval.watchdog_killed ? 1 : 0, core_.Feasible(complete) ? 1 : 0,
        SessionModeName(after), complete.sla_violated_after ? 1 : 0);
  });
  if (after != before) {
    TraceEvent([&] {
      return StringPrintf(
          "\"event\":\"mode_transition\",\"from\":\"%s\",\"to\":\"%s\","
          "\"seq\":%llu",
          SessionModeName(before), SessionModeName(after),
          static_cast<unsigned long long>(eval.seq));
    });
  }

  ApplyCompletion(result, complete, theta);
  PublishProgress();
  return Status::OK();
}

Status EventTuningSession::WriteCheckpoint(
    const SessionResult& result, const EvaluationSupervisor& supervisor) {
  EventSessionCheckpoint checkpoint;
  checkpoint.launched = core_.launches();
  checkpoint.completed = core_.completions();
  checkpoint.clock_seconds = clock_seconds_;
  checkpoint.default_observation = result.default_observation;
  checkpoint.sla = result.sla;
  checkpoint.records = core_.log();
  // Pending evaluations in seq order (the heap's layout is an
  // implementation detail that must not leak into checkpoint bytes).
  checkpoint.in_flight = pending_;
  std::sort(checkpoint.in_flight.begin(), checkpoint.in_flight.end(),
            [](const InFlightRecord& a, const InFlightRecord& b) {
              return a.seq < b.seq;
            });
  checkpoint.simulator_state = simulator_->ExportState();
  checkpoint.supervisor_rng = supervisor.rng_state();
  // Count this write before snapshotting so the stored totals include it.
  EventSessionMetrics::Get()->checkpoints->Add();
  checkpoint.metrics = obs::MetricsRegistry::Global()->Counters();
  TraceEvent([&] {
    return StringPrintf("\"event\":\"checkpoint\",\"completed\":%d",
                        core_.completions());
  });
  return SaveEventSessionCheckpointFile(checkpoint,
                                        options_.fault.checkpoint_path);
}

Status EventTuningSession::Restore(const EventSessionCheckpoint& checkpoint,
                                   SessionResult* result,
                                   EvaluationSupervisor* supervisor) {
  RESTUNE_RETURN_IF_ERROR(core_.Replay(
      checkpoint.records,
      [&](const EventRecord& completion, const Vector& theta) {
        ApplyCompletion(result, completion, theta);
      }));
  if (core_.launches() != checkpoint.launched) {
    return Status::FailedPrecondition(
        "checkpoint launch count does not match its event log");
  }
  if (core_.completions() != checkpoint.completed) {
    return Status::FailedPrecondition(
        "checkpoint completion count does not match its event log");
  }
  // Re-materialize the delivery queue from the in-flight outcomes. They are
  // stored in seq order and must pair one to one with the unmatched
  // launches.
  if (core_.outstanding().size() != checkpoint.in_flight.size()) {
    return Status::FailedPrecondition(
        "checkpoint in-flight records do not match unmatched launches");
  }
  auto launch = core_.outstanding().begin();
  for (const InFlightRecord& record : checkpoint.in_flight) {
    if (record.seq != (launch++)->first) {
      return Status::FailedPrecondition(
          "checkpoint in-flight record " + std::to_string(record.seq) +
          " has no matching launch");
    }
    PushPending(record);
  }
  clock_seconds_ = checkpoint.clock_seconds;
  simulator_->RestoreState(checkpoint.simulator_state);
  supervisor->set_rng_state(checkpoint.supervisor_rng);
  // Replay inflated the live counters; rewind to the checkpointed totals
  // so a resumed session reports the same numbers as the uninterrupted
  // one.
  if (!checkpoint.metrics.empty()) {
    obs::MetricsRegistry::Global()->RestoreCounters(checkpoint.metrics);
  }
  return Status::OK();
}

Result<SessionResult> EventTuningSession::RunInternal(
    const EventSessionCheckpoint* resume_from) {
  EvaluationSupervisor supervisor(simulator_, options_.fault.retry,
                                  options_.fault.supervisor_seed);
  SessionResult result;
  core_ = MakeCore();
  pending_.clear();
  clock_seconds_ = 0.0;
  advisor_exhausted_ = false;
  halted_ = false;

  if (resume_from == nullptr) {
    // The default-configuration evaluation anchors the SLA and the safety
    // baseline; it must not die to a random injected fault.
    RESTUNE_ASSIGN_OR_RETURN(
        const SupervisedEvaluation bootstrap,
        supervisor.Evaluate(simulator_->knob_space().DefaultTheta(),
                            /*retry_any_fault=*/true));
    if (!bootstrap.outcome.ok()) {
      return Status::Aborted(
          "default configuration evaluation failed (" +
          std::string(FaultKindName(bootstrap.outcome.fault().kind)) +
          "): " + bootstrap.outcome.fault().message);
    }
    result.default_observation = bootstrap.outcome.observation();
    result.sla = DbInstanceSimulator::ConstraintsFromDefault(
        result.default_observation);
  } else {
    result.resumed = true;
    EventSessionMetrics::Get()->resumes->Add();
    result.default_observation = resume_from->default_observation;
    result.sla = resume_from->sla;
  }
  result.best_feasible_res = result.default_observation.res;
  result.best_theta = result.default_observation.theta;
  result.best_iteration = 0;
  RESTUNE_RETURN_IF_ERROR(core_.Begin(result.default_observation, result.sla,
                                      result.default_observation.theta));
  if (resume_from != nullptr) {
    RESTUNE_RETURN_IF_ERROR(Restore(*resume_from, &result, &supervisor));
  }
  PublishProgress();  // a poller sees restored state before the first launch

  // The halt hook only applies to completions ingested by THIS process —
  // a resumed run past the halt point ignores it.
  int halt_at = options_.halt_after_completions;
  if (resume_from != nullptr && halt_at > 0 &&
      halt_at <= core_.completions()) {
    halt_at = 0;
  }

  while (core_.completions() < options_.max_iterations) {
    RESTUNE_TRACE_SPAN("session.iteration");
    while (!advisor_exhausted_ &&
           pending_.size() < static_cast<size_t>(std::max(
                                 1, options_.max_in_flight)) &&
           core_.launches() < static_cast<uint64_t>(options_.max_iterations)) {
      RESTUNE_ASSIGN_OR_RETURN(const bool launched, Launch(&supervisor));
      if (!launched) {
        advisor_exhausted_ = true;
        break;
      }
    }
    if (pending_.empty()) break;  // advisor exhausted and queue drained
    RESTUNE_RETURN_IF_ERROR(Ingest(&result));

    const int completed = core_.completions();
    const bool halt = halt_at > 0 && completed >= halt_at;
    if (!options_.fault.checkpoint_path.empty() &&
        options_.fault.checkpoint_period > 0 &&
        (halt || completed % options_.fault.checkpoint_period == 0)) {
      RESTUNE_RETURN_IF_ERROR(WriteCheckpoint(result, supervisor));
    }
    if (halt) {
      halted_ = true;
      return result;
    }
  }
  if (!options_.fault.checkpoint_path.empty() && !core_.log().empty()) {
    RESTUNE_RETURN_IF_ERROR(WriteCheckpoint(result, supervisor));
  }
  return result;
}

}  // namespace restune
