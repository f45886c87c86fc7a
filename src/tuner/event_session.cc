#include "tuner/event_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "common/contracts.h"
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
      safety_(options.safety) {}

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

std::vector<Vector> EventTuningSession::PendingThetas() const {
  // Seq order, not heap order: the penalization set must be identical on
  // every replay regardless of how the heap happens to be laid out.
  std::vector<const PendingEval*> sorted;
  sorted.reserve(pending_.size());
  for (const PendingEval& eval : pending_) sorted.push_back(&eval);
  std::sort(sorted.begin(), sorted.end(),
            [](const PendingEval* a, const PendingEval* b) {
              return a->seq < b->seq;
            });
  std::vector<Vector> thetas;
  thetas.reserve(sorted.size());
  for (const PendingEval* eval : sorted) thetas.push_back(eval->theta);
  return thetas;
}

void EventTuningSession::PushPending(PendingEval eval) {
  auto later = [](const PendingEval& a, const PendingEval& b) {
    if (a.delivery_seconds != b.delivery_seconds) {
      return a.delivery_seconds > b.delivery_seconds;
    }
    return a.seq > b.seq;
  };
  pending_.push_back(std::move(eval));
  std::push_heap(pending_.begin(), pending_.end(), later);
  EventSessionMetrics::Get()->in_flight->Set(
      static_cast<double>(pending_.size()));
}

EventTuningSession::PendingEval EventTuningSession::PopPending() {
  auto later = [](const PendingEval& a, const PendingEval& b) {
    if (a.delivery_seconds != b.delivery_seconds) {
      return a.delivery_seconds > b.delivery_seconds;
    }
    return a.seq > b.seq;
  };
  std::pop_heap(pending_.begin(), pending_.end(), later);
  PendingEval eval = std::move(pending_.back());
  pending_.pop_back();
  EventSessionMetrics::Get()->in_flight->Set(
      static_cast<double>(pending_.size()));
  return eval;
}

Result<bool> EventTuningSession::Launch(EvaluationSupervisor* supervisor) {
  RESTUNE_TRACE_SPAN("session.launch");
  SessionMode mode = safety_.mode();
  bool frozen = mode == SessionMode::kFrozen;
  Vector theta;
  if (frozen) {
    theta = safety_.safe_theta();
    EventSessionMetrics::Get()->frozen_probes->Add();
  } else {
    if (mode == SessionMode::kConstrained) {
      advisor_->SetTrustRegion(safety_.safe_theta(), safety_.trust_radius());
    } else {
      advisor_->ClearTrustRegion();
    }
    Result<Vector> suggestion = advisor_->SuggestNextAsync(PendingThetas());
    if (!suggestion.ok()) {
      if (suggestion.status().code() == StatusCode::kOutOfRange) {
        return false;  // advisor exhausted (grid search ran out)
      }
      // The surrogate failed to fit — drop to frozen and probe the safe
      // config instead of propagating: an always-on loop must keep serving.
      EventSessionMetrics::Get()->advisor_failures->Add();
      mode = safety_.OnAdvisorFailure();
      frozen = true;
      theta = safety_.safe_theta();
      EventSessionMetrics::Get()->frozen_probes->Add();
    } else {
      theta = *suggestion;
      RESTUNE_DCHECK_ALL_FINITE(theta);
    }
  }

  const uint64_t seq = launched_++;
  EventRecord launch;
  launch.kind = EventKind::kLaunch;
  launch.seq = seq;
  launch.theta = theta;
  launch.frozen = frozen;
  launch.mode = mode;
  launch.sla_violated = safety_.sla_violated();
  records_.push_back(launch);
  EventSessionMetrics::Get()->launches->Add();
  TraceEvent([&] {
    std::string body = StringPrintf(
        "\"event\":\"launch\",\"seq\":%llu,\"mode\":\"%s\","
        "\"sla_violated\":%d,\"frozen\":%d",
        static_cast<unsigned long long>(seq), SessionModeName(mode),
        launch.sla_violated ? 1 : 0, frozen ? 1 : 0);
    body += ",\"theta\":" + JsonVector(theta);
    if (mode != SessionMode::kHealthy) {
      body += ",\"trust_center\":" + JsonVector(safety_.safe_theta());
      body += StringPrintf(",\"trust_radius\":%.17g", safety_.trust_radius());
    }
    return body;
  });

  // Eager evaluation: the outcome is computed at launch (RNG consumed in
  // launch order — thread-count invariant) but delivered later, when the
  // session clock reaches delivery_seconds.
  RESTUNE_ASSIGN_OR_RETURN(const SupervisedEvaluation supervised,
                           supervisor->Evaluate(theta));
  PendingEval pend;
  pend.seq = seq;
  pend.theta = theta;
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
    EventSessionMetrics::Get()->watchdog_kills->Add();
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
  progress_.completed = completed_;
  progress_.launched = launched_;
  progress_.in_flight = pending_.size();
  progress_.clock_seconds = clock_seconds_;
  progress_.mode = safety_.mode();
}

void EventTuningSession::ApplyCompletion(SessionResult* result, int iteration,
                                         const PendingEval& eval,
                                         bool feasible) {
  IterationRecord rec;
  rec.iteration = iteration;
  rec.failed = eval.failed;
  rec.fault = eval.fault;
  rec.attempts = eval.attempts;
  rec.backoff_seconds = eval.backoff_seconds;
  rec.timing = advisor_->last_timing();
  rec.replay_seconds = simulator_->options().replay_seconds;
  if (eval.failed) {
    rec.observation.theta = eval.theta;
    rec.feasible = false;
    ++result->failed_iterations;
  } else {
    rec.observation = eval.observation;
    rec.feasible = feasible;
    if (feasible && rec.observation.res < result->best_feasible_res) {
      result->best_feasible_res = rec.observation.res;
      result->best_theta = rec.observation.theta;
      result->best_iteration = iteration;
    }
  }
  rec.best_feasible_res = result->best_feasible_res;
  result->total_retries += eval.attempts - 1;
  result->history.push_back(rec);
}

Status EventTuningSession::Ingest(SessionResult* result) {
  RESTUNE_TRACE_SPAN("session.ingest");
  PendingEval eval = PopPending();
  clock_seconds_ = std::max(clock_seconds_, eval.delivery_seconds);
  const int iteration = ++completed_;
  EventSessionMetrics::Get()->completions->Add();

  if (eval.failed) {
    if (options_.fault.failure_aware_learning) {
      EvaluationFault fault;
      fault.kind = eval.fault;
      fault.elapsed_seconds = eval.elapsed_seconds;
      fault.message = eval.watchdog_killed
                          ? "watchdog cancelled pending slot"
                          : "supervised evaluation failed";
      RESTUNE_RETURN_IF_ERROR(advisor_->ObserveFailure(eval.theta, fault));
    }
  } else {
    RESTUNE_RETURN_IF_ERROR(advisor_->Observe(eval.observation));
  }
  const bool feasible =
      !eval.failed &&
      result->sla.IsFeasible(eval.observation, options_.sla_tolerance);
  const bool sla_ok =
      !eval.failed &&
      result->sla.IsFeasible(eval.observation,
                             options_.safety.monitor_tolerance);
  const SessionMode before = safety_.mode();
  const SessionMode after =
      safety_.OnCompletion(eval.theta, eval.failed, feasible, sla_ok,
                           eval.observation.res);

  EventRecord complete;
  complete.kind = EventKind::kComplete;
  complete.seq = eval.seq;
  complete.failed = eval.failed;
  complete.observation = eval.failed ? Observation{} : eval.observation;
  complete.fault = eval.fault;
  complete.attempts = eval.attempts;
  complete.backoff_seconds = eval.backoff_seconds;
  complete.elapsed_seconds = eval.elapsed_seconds;
  complete.watchdog_killed = eval.watchdog_killed;
  complete.mode_after = after;
  complete.sla_violated_after = safety_.sla_violated();
  records_.push_back(complete);

  TraceEvent([&] {
    return StringPrintf(
        "\"event\":\"complete\",\"seq\":%llu,\"iteration\":%d,"
        "\"failed\":%d,\"fault\":\"%s\",\"watchdog_killed\":%d,"
        "\"feasible\":%d,\"mode_after\":\"%s\",\"sla_violated_after\":%d",
        static_cast<unsigned long long>(eval.seq), iteration,
        eval.failed ? 1 : 0, FaultKindName(eval.fault),
        eval.watchdog_killed ? 1 : 0, feasible ? 1 : 0,
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

  ApplyCompletion(result, iteration, eval, feasible);
  PublishProgress();
  return Status::OK();
}

Status EventTuningSession::WriteCheckpoint(
    const SessionResult& result, const EvaluationSupervisor& supervisor) {
  EventSessionCheckpoint checkpoint;
  checkpoint.launched = launched_;
  checkpoint.completed = completed_;
  checkpoint.clock_seconds = clock_seconds_;
  checkpoint.default_observation = result.default_observation;
  checkpoint.sla = result.sla;
  checkpoint.records = records_;
  // Pending evaluations in seq order (the heap's layout is an
  // implementation detail that must not leak into checkpoint bytes).
  std::vector<const PendingEval*> sorted;
  sorted.reserve(pending_.size());
  for (const PendingEval& eval : pending_) sorted.push_back(&eval);
  std::sort(sorted.begin(), sorted.end(),
            [](const PendingEval* a, const PendingEval* b) {
              return a->seq < b->seq;
            });
  for (const PendingEval* eval : sorted) {
    InFlightRecord record;
    record.seq = eval->seq;
    record.delivery_seconds = eval->delivery_seconds;
    record.failed = eval->failed;
    record.observation = eval->observation;
    record.fault = eval->fault;
    record.attempts = eval->attempts;
    record.backoff_seconds = eval->backoff_seconds;
    record.elapsed_seconds = eval->elapsed_seconds;
    record.watchdog_killed = eval->watchdog_killed;
    checkpoint.in_flight.push_back(std::move(record));
  }
  checkpoint.simulator_state = simulator_->ExportState();
  checkpoint.supervisor_rng = supervisor.rng_state();
  // Count this write before snapshotting so the stored totals include it.
  EventSessionMetrics::Get()->checkpoints->Add();
  checkpoint.metrics = obs::MetricsRegistry::Global()->Counters();
  TraceEvent([&] {
    return StringPrintf("\"event\":\"checkpoint\",\"completed\":%d",
                        completed_);
  });
  return SaveEventSessionCheckpointFile(checkpoint,
                                        options_.fault.checkpoint_path);
}

Result<SessionResult> EventTuningSession::RunInternal(
    const EventSessionCheckpoint* resume_from) {
  EvaluationSupervisor supervisor(simulator_, options_.fault.retry,
                                  options_.fault.supervisor_seed);
  SessionResult result;
  records_.clear();
  pending_.clear();
  launched_ = 0;
  completed_ = 0;
  clock_seconds_ = 0.0;
  advisor_exhausted_ = false;
  halted_ = false;
  safety_ = SafetyController(options_.safety);

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
    result.best_feasible_res = result.default_observation.res;
    result.best_theta = result.default_observation.theta;
    result.best_iteration = 0;
    safety_.SetBaseline(result.default_observation.theta,
                        result.default_observation.res);
    RESTUNE_RETURN_IF_ERROR(
        advisor_->Begin(result.default_observation, result.sla));
  } else {
    // Resume: rebuild advisor AND safety controller by replaying the
    // totally ordered event log. Every replayed suggestion is verified
    // bitwise against the recorded θ and every replayed ladder transition
    // against the recorded mode — a divergent reconstruction fails loudly
    // instead of silently forking the run.
    result.resumed = true;
    EventSessionMetrics::Get()->resumes->Add();
    result.default_observation = resume_from->default_observation;
    result.sla = resume_from->sla;
    result.best_feasible_res = result.default_observation.res;
    result.best_theta = result.default_observation.theta;
    result.best_iteration = 0;
    safety_.SetBaseline(result.default_observation.theta,
                        result.default_observation.res);
    RESTUNE_RETURN_IF_ERROR(
        advisor_->Begin(result.default_observation, result.sla));

    // seq → (theta, frozen) of launches not yet matched by a completion.
    // std::map keeps seq order — the pending-penalization order.
    std::map<uint64_t, Vector> outstanding;
    uint64_t replayed_launches = 0;
    int replayed_completions = 0;
    for (const EventRecord& record : resume_from->records) {
      if (record.kind == EventKind::kLaunch) {
        // Launch seqs are issued 0, 1, 2, ... in log order; anything else
        // (a duplicate, a gap) is a hand-edited or corrupt log.
        if (record.seq != replayed_launches) {
          return Status::FailedPrecondition(
              "checkpoint launch " + std::to_string(record.seq) +
              " is out of sequence; expected seq " +
              std::to_string(replayed_launches));
        }
        ++replayed_launches;
        // An advisor failure mid-run froze the ladder without a completion
        // event; mirror it so the replayed mode matches.
        if (record.mode == SessionMode::kFrozen &&
            safety_.mode() != SessionMode::kFrozen && record.frozen) {
          safety_.OnAdvisorFailure();
        }
        if (record.mode != safety_.mode()) {
          return Status::FailedPrecondition(
              "checkpoint replay diverged at launch " +
              std::to_string(record.seq) + ": recorded mode '" +
              SessionModeName(record.mode) + "', replayed '" +
              SessionModeName(safety_.mode()) + "'");
        }
        Vector theta;
        if (record.frozen) {
          // Frozen probes never consulted the advisor; replay must not
          // consume advisor RNG for them either.
          theta = safety_.safe_theta();
        } else {
          if (record.mode == SessionMode::kConstrained) {
            advisor_->SetTrustRegion(safety_.safe_theta(),
                                     safety_.trust_radius());
          } else {
            advisor_->ClearTrustRegion();
          }
          std::vector<Vector> pending_thetas;
          pending_thetas.reserve(outstanding.size());
          for (const auto& [seq, t] : outstanding) pending_thetas.push_back(t);
          RESTUNE_ASSIGN_OR_RETURN(theta,
                                   advisor_->SuggestNextAsync(pending_thetas));
          RESTUNE_DCHECK_ALL_FINITE(theta);
        }
        bool matches = theta.size() == record.theta.size();
        for (size_t c = 0; matches && c < theta.size(); ++c) {
          matches = theta[c] == record.theta[c];
        }
        if (!matches) {
          return Status::FailedPrecondition(
              "checkpoint replay diverged at launch " +
              std::to_string(record.seq) +
              "; advisor was not reconstructed with the original seeds");
        }
        outstanding.emplace(record.seq, std::move(theta));
        continue;
      }
      // Completion record.
      auto it = outstanding.find(record.seq);
      if (it == outstanding.end()) {
        return Status::FailedPrecondition(
            "checkpoint completion " + std::to_string(record.seq) +
            " has no matching launch");
      }
      const Vector theta = it->second;
      outstanding.erase(it);
      if (record.failed) {
        if (options_.fault.failure_aware_learning) {
          EvaluationFault fault;
          fault.kind = record.fault;
          fault.elapsed_seconds = record.elapsed_seconds;
          fault.message = "replayed from checkpoint";
          RESTUNE_RETURN_IF_ERROR(advisor_->ObserveFailure(theta, fault));
        }
      } else {
        RESTUNE_RETURN_IF_ERROR(advisor_->Observe(record.observation));
      }
      const bool feasible =
          !record.failed &&
          result.sla.IsFeasible(record.observation, options_.sla_tolerance);
      const bool sla_ok =
          !record.failed &&
          result.sla.IsFeasible(record.observation,
                                options_.safety.monitor_tolerance);
      const SessionMode after = safety_.OnCompletion(
          theta, record.failed, feasible, sla_ok, record.observation.res);
      if (after != record.mode_after ||
          safety_.sla_violated() != record.sla_violated_after) {
        return Status::FailedPrecondition(
            "checkpoint replay diverged at completion " +
            std::to_string(record.seq) +
            ": safety ladder did not retrace the recorded transitions");
      }
      PendingEval eval;
      eval.seq = record.seq;
      eval.theta = theta;
      eval.failed = record.failed;
      eval.observation = record.observation;
      eval.fault = record.fault;
      eval.attempts = record.attempts;
      eval.backoff_seconds = record.backoff_seconds;
      eval.elapsed_seconds = record.elapsed_seconds;
      eval.watchdog_killed = record.watchdog_killed;
      ApplyCompletion(&result, ++replayed_completions, eval, feasible);
    }
    if (replayed_launches != resume_from->launched) {
      return Status::FailedPrecondition(
          "checkpoint launch count does not match its event log");
    }
    if (replayed_completions != resume_from->completed) {
      return Status::FailedPrecondition(
          "checkpoint completion count does not match its event log");
    }
    // Re-materialize the pending queue: outcomes from the checkpoint, θ
    // from the unmatched launches. The two sets must agree exactly.
    if (outstanding.size() != resume_from->in_flight.size()) {
      return Status::FailedPrecondition(
          "checkpoint in-flight records do not match unmatched launches");
    }
    for (const InFlightRecord& record : resume_from->in_flight) {
      auto it = outstanding.find(record.seq);
      if (it == outstanding.end()) {
        return Status::FailedPrecondition(
            "checkpoint in-flight record " + std::to_string(record.seq) +
            " has no matching launch");
      }
      PendingEval eval;
      eval.seq = record.seq;
      eval.theta = it->second;
      eval.delivery_seconds = record.delivery_seconds;
      eval.failed = record.failed;
      eval.observation = record.observation;
      eval.fault = record.fault;
      eval.attempts = record.attempts;
      eval.backoff_seconds = record.backoff_seconds;
      eval.elapsed_seconds = record.elapsed_seconds;
      eval.watchdog_killed = record.watchdog_killed;
      PushPending(std::move(eval));
    }
    records_ = resume_from->records;
    launched_ = resume_from->launched;
    completed_ = resume_from->completed;
    clock_seconds_ = resume_from->clock_seconds;
    simulator_->RestoreState(resume_from->simulator_state);
    supervisor.set_rng_state(resume_from->supervisor_rng);
    // Replay inflated the live counters; rewind to the checkpointed totals
    // so a resumed session reports the same numbers as the uninterrupted
    // one.
    if (!resume_from->metrics.empty()) {
      obs::MetricsRegistry::Global()->RestoreCounters(resume_from->metrics);
    }
  }
  PublishProgress();  // a poller sees restored state before the first launch

  // The halt hook only applies to completions ingested by THIS process —
  // a resumed run past the halt point ignores it.
  int halt_at = options_.halt_after_completions;
  if (resume_from != nullptr && halt_at > 0 && halt_at <= completed_) {
    halt_at = 0;
  }

  while (completed_ < options_.max_iterations) {
    RESTUNE_TRACE_SPAN("session.iteration");
    while (!advisor_exhausted_ &&
           pending_.size() < static_cast<size_t>(std::max(
                                 1, options_.max_in_flight)) &&
           launched_ < static_cast<uint64_t>(options_.max_iterations)) {
      RESTUNE_ASSIGN_OR_RETURN(const bool launched, Launch(&supervisor));
      if (!launched) {
        advisor_exhausted_ = true;
        break;
      }
    }
    if (pending_.empty()) break;  // advisor exhausted and queue drained
    RESTUNE_RETURN_IF_ERROR(Ingest(&result));

    const bool halt = halt_at > 0 && completed_ >= halt_at;
    if (!options_.fault.checkpoint_path.empty() &&
        options_.fault.checkpoint_period > 0 &&
        (halt || completed_ % options_.fault.checkpoint_period == 0)) {
      RESTUNE_RETURN_IF_ERROR(WriteCheckpoint(result, supervisor));
    }
    if (halt) {
      halted_ = true;
      return result;
    }
  }
  if (!options_.fault.checkpoint_path.empty() && !records_.empty()) {
    RESTUNE_RETURN_IF_ERROR(WriteCheckpoint(result, supervisor));
  }
  return result;
}

}  // namespace restune
