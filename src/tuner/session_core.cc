#include "tuner/session_core.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/contracts.h"

namespace restune {

namespace {

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Status Diverged(const char* event, uint64_t seq, const std::string& detail) {
  return Status::FailedPrecondition("event log replay diverged at " +
                                    std::string(event) + " " +
                                    std::to_string(seq) + detail);
}

}  // namespace

SessionCore::SessionCore(Advisor* advisor, const SafetyOptions& safety,
                         double sla_tolerance, uint64_t first_seq)
    : advisor_(advisor),
      safety_(safety),
      sla_tolerance_(sla_tolerance),
      first_seq_(first_seq),
      next_seq_(first_seq) {}

Status SessionCore::Begin(const Observation& default_observation,
                          const SlaConstraints& sla,
                          const Vector& baseline_theta) {
  sla_ = sla;
  default_observation_ = default_observation;
  baseline_theta_ = baseline_theta;
  best_feasible_res_ = default_observation.res;
  best_theta_ = baseline_theta;
  safety_.SetBaseline(baseline_theta, default_observation.res);
  return advisor_->Begin(default_observation, sla);
}

bool SessionCore::Feasible(const CompletionOutcome& outcome) const {
  return !outcome.failed &&
         sla_.IsFeasible(outcome.observation, sla_tolerance_);
}

Result<Vector> SessionCore::Suggest(SessionMode mode) {
  SuggestionRequest request;
  request.pending.reserve(outstanding_.size());
  for (const auto& [seq, theta] : outstanding_) request.pending.push_back(theta);
  if (mode == SessionMode::kConstrained) {
    request.trust_center = safety_.safe_theta();
    request.trust_radius = safety_.trust_radius();
  }
  Result<Vector> theta = advisor_->SuggestNextAsync(request);
  if (!theta.ok()) return theta;
  // Every suggestion lands in the trust region, whatever the advisor made
  // of the request. The surrogate advisors already project into it, and
  // clamping a point inside the box keeps its bits.
  *theta = request.Clamp(*theta);
  RESTUNE_DCHECK_ALL_FINITE(*theta);
  return theta;
}

EventRecord SessionCore::AppendLaunch(Vector theta, bool frozen,
                                      SessionMode mode) {
  EventRecord launch;
  launch.kind = EventKind::kLaunch;
  launch.seq = next_seq_++;
  launch.theta = theta;
  launch.frozen = frozen;
  launch.mode = mode;
  launch.sla_violated = safety_.sla_violated();
  outstanding_.emplace(launch.seq, std::move(theta));
  log_.push_back(launch);
  return launch;
}

Result<EventRecord> SessionCore::Launch() {
  SessionMode mode = safety_.mode();
  if (mode == SessionMode::kFrozen) {
    return AppendLaunch(safety_.safe_theta(), /*frozen=*/true, mode);
  }
  Result<Vector> suggestion = Suggest(mode);
  if (suggestion.ok()) {
    return AppendLaunch(std::move(suggestion).value(), /*frozen=*/false, mode);
  }
  if (suggestion.status().code() == StatusCode::kOutOfRange) {
    return suggestion.status();  // the advisor is exhausted
  }
  // The surrogate failed to fit: drop to frozen and probe the safe config
  // instead of failing — an always-on session keeps answering.
  mode = safety_.OnAdvisorFailure();
  return AppendLaunch(safety_.safe_theta(), /*frozen=*/true, mode);
}

Result<EventRecord> SessionCore::Complete(uint64_t seq,
                                          const CompletionOutcome& outcome) {
  const auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) {
    return Status::FailedPrecondition("completion " + std::to_string(seq) +
                                      " has no outstanding launch");
  }
  const Vector& theta = it->second;
  if (!outcome.failed) {
    RESTUNE_RETURN_IF_ERROR(advisor_->Observe(outcome.observation));
  } else {
    EvaluationFault fault;
    fault.kind = outcome.fault;
    fault.elapsed_seconds = outcome.elapsed_seconds;
    fault.message = outcome.watchdog_killed ? "watchdog cancelled pending slot"
                                            : "evaluation failed";
    RESTUNE_RETURN_IF_ERROR(advisor_->ObserveFailure(theta, fault));
  }

  EventRecord completion;
  static_cast<CompletionOutcome&>(completion) = outcome;
  completion.kind = EventKind::kComplete;
  completion.seq = seq;
  if (outcome.failed) completion.observation = Observation{};
  // Two-tolerance rule: the strict verdict gates safe-config updates and
  // best tracking, the lenient one feeds the violation monitor
  // (exploration on the constraint boundary routinely dips a few percent
  // infeasible).
  const bool feasible = Feasible(completion);
  const bool sla_ok =
      !outcome.failed &&
      sla_.IsFeasible(outcome.observation, safety_.options().monitor_tolerance);
  completion.mode_after = safety_.OnCompletion(
      theta, outcome.failed, feasible, sla_ok, completion.observation.res);
  completion.sla_violated_after = safety_.sla_violated();

  ++completions_;
  if (feasible && completion.observation.res < best_feasible_res_) {
    best_feasible_res_ = completion.observation.res;
    best_theta_ = completion.observation.theta;
    best_completion_ = completions_;
  }
  outstanding_.erase(it);
  log_.push_back(completion);
  return completion;
}

Status SessionCore::Replay(const std::vector<EventRecord>& log,
                           const CompletionFn& on_complete) {
  for (const EventRecord& record : log) {
    if (record.kind == EventKind::kComplete) {
      const auto launch = outstanding_.find(record.seq);
      const Vector theta =
          launch == outstanding_.end() ? Vector{} : launch->second;
      RESTUNE_ASSIGN_OR_RETURN(const EventRecord completion,
                               Complete(record.seq, record));
      if (completion.mode_after != record.mode_after ||
          completion.sla_violated_after != record.sla_violated_after) {
        return Diverged("completion", record.seq,
                        std::string(": recorded mode_after '") +
                            SessionModeName(record.mode_after) +
                            "', replayed '" +
                            SessionModeName(completion.mode_after) + "'");
      }
      if (on_complete) on_complete(completion, theta);
      continue;
    }
    // Launch seqs are issued first_seq, first_seq + 1, ... in log order;
    // anything else (a duplicate, a gap) is a hand-edited or corrupt log.
    if (record.seq != next_seq_) {
      return Status::FailedPrecondition(
          "event log launch " + std::to_string(record.seq) +
          " is out of sequence; expected seq " + std::to_string(next_seq_));
    }
    // An advisor failure froze the ladder without a completion event;
    // mirror it so the replayed mode matches.
    if (record.frozen && record.mode == SessionMode::kFrozen &&
        safety_.mode() != SessionMode::kFrozen) {
      safety_.OnAdvisorFailure();
    }
    if (record.mode != safety_.mode() ||
        record.sla_violated != safety_.sla_violated()) {
      return Diverged("launch", record.seq,
                      std::string(": recorded mode '") +
                          SessionModeName(record.mode) + "', replayed '" +
                          SessionModeName(safety_.mode()) + "'");
    }
    // Frozen probes never consulted the advisor; replay must not consume
    // advisor RNG for them either.
    Vector theta = safety_.safe_theta();
    if (!record.frozen) {
      RESTUNE_ASSIGN_OR_RETURN(theta, Suggest(record.mode));
    }
    if (!SameBits(theta, record.theta)) {
      return Diverged("launch", record.seq,
                      "; the advisor was not rebuilt with the original "
                      "seeds, options and repository");
    }
    AppendLaunch(std::move(theta), record.frozen, record.mode);
  }
  return Status::OK();
}

}  // namespace restune
