#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "tuner/cbo_advisor.h"
#include "tuner/cdbtune_advisor.h"
#include "tuner/checkpoint.h"
#include "tuner/event_session.h"
#include "tuner/grid_advisor.h"
#include "tuner/harness.h"
#include "tuner/ottertune_advisor.h"
#include "tuner/restune_advisor.h"
#include "tuner/safety.h"
#include "tuner/session.h"
#include "tuner/session_core.h"
#include "tuner/supervisor.h"

namespace restune {
namespace {

/// A file name under the test temp directory that is this process's own:
/// ctest runs this binary twice at once (`*_threads1` at one thread).
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

DbInstanceSimulator CaseStudySimulator(uint64_t seed,
                                       FaultInjectionOptions faults = {}) {
  SimulatorOptions options;
  options.seed = seed;
  options.faults = faults;
  return DbInstanceSimulator(CaseStudyKnobSpace(),
                             HardwareInstance('A').value(),
                             MakeWorkload(WorkloadKind::kTwitter).value(),
                             options);
}

FaultInjectionOptions TwentyPercentFaults(uint64_t seed = 4242) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.seed = seed;
  faults.crash_prob = 0.04;
  faults.timeout_prob = 0.04;
  faults.transient_prob = 0.08;
  faults.corrupt_prob = 0.04;
  return faults;
}

CboAdvisorOptions FastAdvisorOptions(uint64_t seed = 61) {
  CboAdvisorOptions options;
  options.initial_lhs_samples = 4;
  options.seed = seed;
  return options;
}

class EventSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Logger::SetThreshold(LogLevel::kError); }
};

// ------------------------------------------------------------- SLA monitor

TEST(SlaMonitorTest, TripsOnWindowViolationsAndRecoversOnStreak) {
  SlaMonitorOptions options;
  options.window = 6;
  options.trip_count = 3;
  options.recovery_streak = 4;
  SlaMonitor monitor(options);
  EXPECT_FALSE(monitor.violated());

  monitor.Record(false);
  monitor.Record(true);
  monitor.Record(false);
  EXPECT_FALSE(monitor.violated());  // 2 < trip_count
  monitor.Record(false);
  EXPECT_TRUE(monitor.violated());  // third violation in the window trips

  // Hysteresis: feasible results do not clear the trip until the streak is
  // long enough, even once the violations age out of the window.
  monitor.Record(true);
  monitor.Record(true);
  monitor.Record(true);
  EXPECT_TRUE(monitor.violated());
  monitor.Record(true);  // 4th consecutive feasible
  EXPECT_FALSE(monitor.violated());
}

TEST(SlaMonitorTest, RecoveryStreakResetsOnAnyViolation) {
  SlaMonitorOptions options;
  options.window = 4;
  options.trip_count = 2;
  options.recovery_streak = 3;
  SlaMonitor monitor(options);
  monitor.Record(false);
  monitor.Record(false);
  ASSERT_TRUE(monitor.violated());
  monitor.Record(true);
  monitor.Record(true);
  monitor.Record(false);  // breaks the streak (and refills the window)
  monitor.Record(true);
  monitor.Record(true);
  EXPECT_TRUE(monitor.violated());  // streak is 2 again, not 4
  monitor.Record(true);
  EXPECT_FALSE(monitor.violated());
}

// -------------------------------------------------------- safety controller

SafetyOptions TightSafety() {
  SafetyOptions options;
  options.sla.window = 6;
  options.sla.trip_count = 2;
  options.sla.recovery_streak = 2;
  options.constrain_after_failures = 2;
  options.freeze_after_failures = 4;
  options.freeze_after_infeasible = 4;
  options.unfreeze_after_feasible = 2;
  return options;
}

TEST(SafetyControllerTest, FailureLadderClimbsToFrozenAndRecovers) {
  SafetyController ctrl(TightSafety());
  const Vector base = {0.5, 0.5, 0.5};
  ctrl.SetBaseline(base, 10.0);
  EXPECT_EQ(ctrl.mode(), SessionMode::kHealthy);

  EXPECT_EQ(ctrl.OnCompletion(base, /*failed=*/true, false, false, 0.0),
            SessionMode::kHealthy);
  EXPECT_EQ(ctrl.OnCompletion(base, true, false, false, 0.0),
            SessionMode::kConstrained);  // 2 consecutive failures
  EXPECT_EQ(ctrl.OnCompletion(base, true, false, false, 0.0),
            SessionMode::kConstrained);
  EXPECT_EQ(ctrl.OnCompletion(base, true, false, false, 0.0),
            SessionMode::kFrozen);  // 4 consecutive failures

  // Feasible frozen probes step back down: frozen -> constrained, and once
  // the monitor clears, constrained -> healthy.
  EXPECT_EQ(ctrl.OnCompletion(base, false, true, true, 10.0), SessionMode::kFrozen);
  EXPECT_EQ(ctrl.OnCompletion(base, false, true, true, 10.0),
            SessionMode::kConstrained);
  const SessionMode final_mode = ctrl.OnCompletion(base, false, true, true, 10.0);
  EXPECT_EQ(final_mode, SessionMode::kHealthy);
  EXPECT_FALSE(ctrl.sla_violated());
  EXPECT_GE(ctrl.transitions(), 4);
}

TEST(SafetyControllerTest, SlaViolationsConstrainWithoutFailures) {
  SafetyController ctrl(TightSafety());
  const Vector base = {0.2, 0.2, 0.2};
  ctrl.SetBaseline(base, 10.0);
  EXPECT_EQ(ctrl.OnCompletion(base, false, /*feasible=*/false,
                            /*sla_ok=*/false, 11.0),
            SessionMode::kHealthy);
  EXPECT_EQ(ctrl.OnCompletion(base, false, false, false, 11.0),
            SessionMode::kConstrained);  // monitor tripped
  EXPECT_TRUE(ctrl.sla_violated());
}

TEST(SafetyControllerTest, TracksLowestResourceFeasibleConfig) {
  SafetyController ctrl(TightSafety());
  ctrl.SetBaseline({0.5, 0.5}, 10.0);
  ctrl.OnCompletion({0.4, 0.4}, false, true, true, 8.0);
  EXPECT_EQ(ctrl.safe_res(), 8.0);
  EXPECT_EQ(ctrl.safe_theta(), (Vector{0.4, 0.4}));
  // Worse (higher-res) and infeasible results never move the safe config.
  ctrl.OnCompletion({0.9, 0.9}, false, true, true, 9.5);
  ctrl.OnCompletion({0.1, 0.1}, false, false, false, 1.0);
  EXPECT_EQ(ctrl.safe_res(), 8.0);
  EXPECT_EQ(ctrl.safe_theta(), (Vector{0.4, 0.4}));
}

TEST(SafetyControllerTest, AdvisorFailureFreezesImmediately) {
  SafetyController ctrl(TightSafety());
  ctrl.SetBaseline({0.5}, 10.0);
  EXPECT_EQ(ctrl.mode(), SessionMode::kHealthy);
  EXPECT_EQ(ctrl.OnAdvisorFailure(), SessionMode::kFrozen);
}

// ------------------------------------------------------------ session core

/// An advisor that answers every suggestion with a scripted status (or,
/// when the script is empty, a fixed θ) and counts its calls.
class FakeAdvisor : public Advisor {
 public:
  const std::string& name() const override { return name_; }
  Status Begin(const Observation&, const SlaConstraints&) override {
    return Status::OK();
  }
  Result<Vector> SuggestNextAsync(const SuggestionRequest&) override {
    ++suggestions;
    if (!script.empty()) {
      const Status next = script.front();
      script.erase(script.begin());
      return next;
    }
    return Vector{0.25, 0.75};
  }
  Status Observe(const Observation&) override { return Status::OK(); }

  std::vector<Status> script;
  int suggestions = 0;

 private:
  std::string name_ = "fake";
};

/// A core on `advisor` begun at the baseline θ = (0.5, 0.5).
SessionCore BegunCore(Advisor* advisor, const SafetyOptions& safety = {}) {
  SessionCore core(advisor, safety, /*sla_tolerance=*/0.0,
                   /*first_seq=*/1);
  Observation baseline;
  baseline.theta = {0.5, 0.5};
  baseline.res = 10.0;
  baseline.tps = 100.0;
  baseline.lat = 5.0;
  EXPECT_TRUE(core.Begin(baseline, SlaConstraints{100.0, 5.0}, baseline.theta)
                  .ok());
  return core;
}

TEST(SessionCoreTest, SurrogateFailureFreezesAndLaunchesTheSafeConfig) {
  FakeAdvisor advisor;
  advisor.script = {Status::NumericalError("surrogate did not fit")};
  SessionCore core = BegunCore(&advisor);
  const Result<EventRecord> launch = core.Launch();
  ASSERT_TRUE(launch.ok()) << launch.status().ToString();
  EXPECT_EQ(advisor.suggestions, 1);
  EXPECT_TRUE(launch->frozen);
  EXPECT_EQ(launch->mode, SessionMode::kFrozen);
  EXPECT_EQ(launch->seq, 1u);
  EXPECT_EQ(launch->theta, core.safety().safe_theta());
  EXPECT_EQ(core.safety().mode(), SessionMode::kFrozen);
  // Frozen: the next launch probes the safe config without the advisor.
  const Result<EventRecord> probe = core.Launch();
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(advisor.suggestions, 1);
  EXPECT_EQ(probe->theta, core.safety().safe_theta());
}

TEST(SessionCoreTest, ExhaustionIsReturnedUnchangedAndLaunchesNothing) {
  FakeAdvisor advisor;
  advisor.script = {Status::OutOfRange("grid exhausted")};
  SessionCore core = BegunCore(&advisor);
  const Result<EventRecord> launch = core.Launch();
  EXPECT_EQ(launch.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(launch.status().message(), "grid exhausted");
  EXPECT_EQ(core.launches(), 0u);
  EXPECT_TRUE(core.log().empty());
  EXPECT_EQ(core.safety().mode(), SessionMode::kHealthy);
}

TEST(SessionCoreTest, ReplayingFrozenLaunchesMakesNoAdvisorCall) {
  FakeAdvisor advisor;
  advisor.script = {Status::NumericalError("surrogate did not fit")};
  SessionCore core = BegunCore(&advisor);
  ASSERT_TRUE(core.Launch().ok());  // the failure that froze the session
  ASSERT_TRUE(core.Launch().ok());  // a frozen probe
  ASSERT_EQ(core.log().size(), 2u);

  FakeAdvisor fresh;
  SessionCore replayed = BegunCore(&fresh);
  ASSERT_TRUE(replayed.Replay(core.log(), nullptr).ok());
  EXPECT_EQ(fresh.suggestions, 0);
  EXPECT_EQ(replayed.safety().mode(), SessionMode::kFrozen);
  EXPECT_EQ(replayed.outstanding(), core.outstanding());
  EXPECT_EQ(replayed.launches(), 2u);
}

TEST(SessionCoreTest, ConstrainedGridLaunchesStayInTheTrustRegion) {
  // Grid search knows nothing of the ladder; the core's clamp alone keeps
  // its constrained launches within the trust radius of the safe config.
  GridSearchAdvisor advisor(2, 3);
  SafetyOptions safety;
  safety.constrain_after_failures = 1;
  safety.trust_radius = 0.05;
  SessionCore core = BegunCore(&advisor, safety);
  const Result<EventRecord> first = core.Launch();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  CompletionOutcome crash;
  crash.failed = true;
  crash.fault = FaultKind::kCrash;
  const Result<EventRecord> crashed = core.Complete(first->seq, crash);
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  ASSERT_EQ(crashed->mode_after, SessionMode::kConstrained);
  const Vector center = core.safety().safe_theta();
  for (int i = 0; i < 5; ++i) {
    const Result<EventRecord> launch = core.Launch();
    ASSERT_TRUE(launch.ok()) << launch.status().ToString();
    EXPECT_EQ(launch->mode, SessionMode::kConstrained);
    EXPECT_FALSE(launch->frozen);
    for (size_t d = 0; d < center.size(); ++d) {
      EXPECT_LE(std::fabs(launch->theta[d] - center[d]),
                safety.trust_radius + 1e-12)
          << "launch " << launch->seq << " escaped at dim " << d;
    }
  }
}

// ------------------------------------------------------------- trust region

TEST(TrustRegionTest, ClampToTrustRegionClampsIntoBox) {
  const Vector center = {0.5, 0.1, 0.9};
  const Vector clamped = ClampToTrustRegion({0.9, 0.0, 0.5}, center, 0.2);
  EXPECT_DOUBLE_EQ(clamped[0], 0.7);
  EXPECT_DOUBLE_EQ(clamped[1], 0.0);  // box intersected with [0,1]
  EXPECT_DOUBLE_EQ(clamped[2], 0.7);
  // Inside the box: untouched.
  EXPECT_EQ(ClampToTrustRegion({0.5, 0.1, 0.9}, center, 0.2),
            (Vector{0.5, 0.1, 0.9}));
}

TEST_F(EventSessionTest, TrustRegionConstrainsAdvisorSuggestions) {
  DbInstanceSimulator sim = CaseStudySimulator(31);
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  const Observation def = sim.Evaluate(sim.knob_space().DefaultTheta()).value();
  ASSERT_TRUE(
      advisor.Begin(def, DbInstanceSimulator::ConstraintsFromDefault(def))
          .ok());
  SuggestionRequest request;
  request.trust_center = def.theta;
  request.trust_radius = 0.08;
  for (int i = 0; i < 8; ++i) {
    const auto suggestion = advisor.SuggestNextAsync(request);
    ASSERT_TRUE(suggestion.ok()) << suggestion.status().ToString();
    for (size_t d = 0; d < suggestion->size(); ++d) {
      EXPECT_LE(std::fabs((*suggestion)[d] - request.trust_center[d]),
                request.trust_radius + 1e-12)
          << "suggestion " << i << " escaped the trust region at dim " << d;
    }
    ASSERT_TRUE(advisor.Observe(sim.Evaluate(*suggestion).value()).ok());
  }
  // A request without the region restores the full box (no assertion on
  // escape — just that suggestions remain valid).
  EXPECT_TRUE(advisor.SuggestNext().ok());
}

// ----------------------------------------------------- event loop structure

TEST_F(EventSessionTest, RunProducesTotallyOrderedLogAndFullHistory) {
  DbInstanceSimulator sim = CaseStudySimulator(41);
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  EventSessionOptions options;
  options.max_iterations = 12;
  options.max_in_flight = 3;
  EventTuningSession session(&sim, &advisor, options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->history.size(), 12u);
  EXPECT_GT(result->default_observation.tps, 0.0);

  const auto& records = session.records();
  std::set<uint64_t> launched;
  std::set<uint64_t> completed;
  uint64_t next_seq = 0;
  for (const EventRecord& record : records) {
    if (record.kind == EventKind::kLaunch) {
      EXPECT_EQ(record.seq, next_seq++) << "launches must be in seq order";
      EXPECT_TRUE(launched.insert(record.seq).second);
      EXPECT_EQ(record.theta.size(), 3u);
    } else {
      EXPECT_TRUE(launched.count(record.seq))
          << "completion before its launch";
      EXPECT_TRUE(completed.insert(record.seq).second);
    }
  }
  EXPECT_EQ(launched.size(), 12u);
  EXPECT_EQ(completed.size(), 12u);
  // Early exploration may visit infeasible configs and constrain the
  // session, but a fault-free run must never freeze.
  EXPECT_NE(session.safety().mode(), SessionMode::kFrozen);
}

TEST_F(EventSessionTest, FaultMixDeliversCompletionsOutOfOrder) {
  DbInstanceSimulator sim = CaseStudySimulator(43, TwentyPercentFaults(7));
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  EventSessionOptions options;
  options.max_iterations = 30;
  options.max_in_flight = 4;
  EventTuningSession session(&sim, &advisor, options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<uint64_t> completion_order;
  for (const EventRecord& record : session.records()) {
    if (record.kind == EventKind::kComplete) {
      completion_order.push_back(record.seq);
    }
  }
  ASSERT_EQ(completion_order.size(), 30u);
  // A timeout/retried launch outlives a clean later launch, so delivery
  // order must differ from launch order somewhere in a 30-iteration run at
  // 20% faults.
  EXPECT_FALSE(std::is_sorted(completion_order.begin(),
                              completion_order.end()))
      << "expected at least one out-of-order delivery";
}

TEST_F(EventSessionTest, EventLogIsThreadCountInvariant) {
  auto run_with_pool = [](ThreadPool* pool) {
    DbInstanceSimulator sim = CaseStudySimulator(47, TwentyPercentFaults(9));
    CboAdvisorOptions advisor_options = FastAdvisorOptions();
    advisor_options.acq_optimizer.pool = pool;
    CboAdvisor advisor("cbo", 3, advisor_options);
    EventSessionOptions options;
    options.max_iterations = 16;
    options.max_in_flight = 4;
    EventTuningSession session(&sim, &advisor, options);
    const auto result = session.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return session.records();
  };
  // Fan-out loop counts: the 8-thread run must take the parallel path
  // (its sweeps are above the pool's range grain) or the test proves
  // nothing. Loops on the shared pool are the same in both runs.
  obs::Counter* loops =
      obs::MetricsRegistry::Global()->GetCounter("restune_pool_loops_total");
  ThreadPool one(1);
  ThreadPool eight(8);
  const int64_t before_one = loops->Value();
  const auto a = run_with_pool(&one);
  const int64_t before_eight = loops->Value();
  const auto b = run_with_pool(&eight);
  EXPECT_GT(loops->Value() - before_eight, before_eight - before_one);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "record " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "record " << i;
    EXPECT_EQ(a[i].theta, b[i].theta) << "record " << i;
    EXPECT_EQ(a[i].failed, b[i].failed) << "record " << i;
    EXPECT_EQ(a[i].fault, b[i].fault) << "record " << i;
    EXPECT_EQ(a[i].mode, b[i].mode) << "record " << i;
    EXPECT_EQ(a[i].mode_after, b[i].mode_after) << "record " << i;
    EXPECT_EQ(a[i].observation.res, b[i].observation.res) << "record " << i;
    EXPECT_EQ(a[i].elapsed_seconds, b[i].elapsed_seconds) << "record " << i;
  }
}

// ----------------------------------------------------------------- watchdog

TEST_F(EventSessionTest, WatchdogCancelsStalledEvaluations) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.seed = 11;
  faults.stall_prob = 0.3;
  DbInstanceSimulator sim = CaseStudySimulator(53, faults);
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  EventSessionOptions options;
  options.max_iterations = 20;
  options.max_in_flight = 2;
  EventTuningSession session(&sim, &advisor, options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int stalls = 0;
  for (const EventRecord& record : session.records()) {
    if (record.kind != EventKind::kComplete) continue;
    if (record.fault == FaultKind::kStall) {
      ++stalls;
      EXPECT_TRUE(record.failed);
      EXPECT_TRUE(record.watchdog_killed)
          << "a stall can only end via the watchdog";
      // The slot was cut at the watchdog deadline, not at the stall's
      // nominal (10x replay) cost.
      EXPECT_DOUBLE_EQ(record.elapsed_seconds,
                       options.watchdog_multiplier *
                           sim.options().replay_seconds);
    }
  }
  EXPECT_GT(stalls, 0) << "seed produced no stalls; pick another";
}

TEST_F(EventSessionTest, WatchdogDeadlineIsExclusiveAndReclassifiesOverruns) {
  // Deadline exactly equal to a clean replay: nothing is killed.
  {
    DbInstanceSimulator sim = CaseStudySimulator(59);
    CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
    EventSessionOptions options;
    options.max_iterations = 8;
    options.watchdog_deadline_seconds = sim.options().replay_seconds;
    EventTuningSession session(&sim, &advisor, options);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const EventRecord& record : session.records()) {
      EXPECT_FALSE(record.watchdog_killed)
          << "delivery exactly at the deadline must survive";
    }
  }
  // Deadline below the replay time: every evaluation overruns, the slot is
  // cancelled, and even clean successes are reclassified as timeouts.
  {
    DbInstanceSimulator sim = CaseStudySimulator(59);
    CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
    EventSessionOptions options;
    options.max_iterations = 6;
    options.watchdog_deadline_seconds = sim.options().replay_seconds - 1.0;
    EventTuningSession session(&sim, &advisor, options);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    int killed = 0;
    for (const EventRecord& record : session.records()) {
      if (record.kind != EventKind::kComplete) continue;
      ++killed;
      EXPECT_TRUE(record.watchdog_killed);
      EXPECT_TRUE(record.failed);
      EXPECT_EQ(record.fault, FaultKind::kTimeout);
      EXPECT_DOUBLE_EQ(record.elapsed_seconds,
                       options.watchdog_deadline_seconds);
    }
    EXPECT_EQ(killed, 6);
  }
}

// -------------------------------------------------------- SLA burst + ladder

TEST_F(EventSessionTest, SlaBurstTripsLadderKeepsSuggestionsInTrustRegion) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.seed = 13;
  faults.sla_burst_start = 4;
  faults.sla_burst_length = 8;
  DbInstanceSimulator sim = CaseStudySimulator(61, faults);
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  EventSessionOptions options;
  options.max_iterations = 40;
  options.max_in_flight = 2;
  options.safety = TightSafety();
  EventTuningSession session(&sim, &advisor, options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Re-derive the safety state by walking the totally ordered log exactly
  // as the session did, and assert the core invariant: every suggestion
  // launched while the SLA monitor reported a violation lies inside the
  // L-inf trust region around the then-current safe config.
  SafetyController replayed(options.safety);
  replayed.SetBaseline(result->default_observation.theta,
                       result->default_observation.res);
  std::map<uint64_t, Vector> thetas;
  int constrained_launches = 0;
  for (const EventRecord& record : session.records()) {
    if (record.kind == EventKind::kLaunch) {
      ASSERT_EQ(record.mode, replayed.mode()) << "seq " << record.seq;
      ASSERT_EQ(record.sla_violated, replayed.sla_violated())
          << "seq " << record.seq;
      if (record.mode != SessionMode::kHealthy) {
        ++constrained_launches;
        const Vector& center = replayed.safe_theta();
        for (size_t d = 0; d < record.theta.size(); ++d) {
          EXPECT_LE(std::fabs(record.theta[d] - center[d]),
                    replayed.trust_radius() + 1e-12)
              << "seq " << record.seq << " escaped the trust region";
        }
      }
      thetas.emplace(record.seq, record.theta);
      continue;
    }
    const bool feasible =
        !record.failed && result->sla.IsFeasible(record.observation);
    const bool sla_ok =
        !record.failed &&
        result->sla.IsFeasible(record.observation,
                               options.safety.monitor_tolerance);
    const SessionMode after = replayed.OnCompletion(
        thetas.at(record.seq), record.failed, feasible, sla_ok,
        record.observation.res);
    ASSERT_EQ(after, record.mode_after) << "seq " << record.seq;
  }
  EXPECT_GT(constrained_launches, 0)
      << "the burst never constrained the session";
  // The burst is long over by iteration 40: the ladder must have recovered.
  EXPECT_EQ(session.records().back().mode_after, SessionMode::kHealthy);
  EXPECT_FALSE(session.safety().sla_violated());
}

// -------------------------------------------------------- checkpoint/resume

TEST(EventCheckpointTest, RoundTripsRecordsAndInFlight) {
  EventSessionCheckpoint checkpoint;
  checkpoint.launched = 3;
  checkpoint.completed = 1;
  checkpoint.clock_seconds = 1234.5;
  checkpoint.default_observation.theta = {0.5, 0.5};
  checkpoint.default_observation.res = 10.0;
  checkpoint.default_observation.tps = 900.0;
  checkpoint.default_observation.lat = 30.0;
  checkpoint.sla = SlaConstraints{855.0, 33.0};

  EventRecord launch;
  launch.kind = EventKind::kLaunch;
  launch.seq = 0;
  launch.theta = {0.25, 0.75};
  launch.mode = SessionMode::kConstrained;
  launch.sla_violated = true;
  checkpoint.records.push_back(launch);
  EventRecord frozen_launch = launch;
  frozen_launch.seq = 1;
  frozen_launch.frozen = true;
  frozen_launch.mode = SessionMode::kFrozen;
  checkpoint.records.push_back(frozen_launch);
  EventRecord complete;
  complete.kind = EventKind::kComplete;
  complete.seq = 0;
  complete.failed = true;
  complete.fault = FaultKind::kStall;
  complete.attempts = 1;
  complete.elapsed_seconds = 2160.0;
  complete.watchdog_killed = true;
  complete.mode_after = SessionMode::kFrozen;
  complete.sla_violated_after = true;
  checkpoint.records.push_back(complete);

  InFlightRecord pending;
  pending.seq = 1;
  pending.delivery_seconds = 999.5;
  pending.failed = false;
  pending.observation.theta = {0.25, 0.75};
  pending.observation.res = 9.0;
  pending.observation.tps = 950.0;
  pending.observation.lat = 28.0;
  pending.attempts = 2;
  pending.backoff_seconds = 5.0;
  pending.elapsed_seconds = 378.0;
  checkpoint.in_flight.push_back(pending);

  std::stringstream stream;
  ASSERT_TRUE(SaveEventSessionCheckpoint(checkpoint, &stream).ok());
  const auto loaded = LoadEventSessionCheckpoint(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->launched, 3u);
  EXPECT_EQ(loaded->completed, 1);
  EXPECT_EQ(loaded->clock_seconds, 1234.5);
  ASSERT_EQ(loaded->records.size(), 3u);
  EXPECT_EQ(loaded->records[0].kind, EventKind::kLaunch);
  EXPECT_EQ(loaded->records[0].theta, launch.theta);
  EXPECT_EQ(loaded->records[0].mode, SessionMode::kConstrained);
  EXPECT_TRUE(loaded->records[0].sla_violated);
  EXPECT_TRUE(loaded->records[1].frozen);
  EXPECT_EQ(loaded->records[2].kind, EventKind::kComplete);
  EXPECT_EQ(loaded->records[2].fault, FaultKind::kStall);
  EXPECT_TRUE(loaded->records[2].watchdog_killed);
  EXPECT_EQ(loaded->records[2].mode_after, SessionMode::kFrozen);
  ASSERT_EQ(loaded->in_flight.size(), 1u);
  EXPECT_EQ(loaded->in_flight[0].seq, 1u);
  EXPECT_EQ(loaded->in_flight[0].delivery_seconds, 999.5);
  EXPECT_EQ(loaded->in_flight[0].observation.res, 9.0);
  EXPECT_EQ(loaded->in_flight[0].attempts, 2);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameObservationBits(const Observation& a, const Observation& b) {
  EXPECT_TRUE(SameBits(a.theta, b.theta));
  EXPECT_TRUE(SameBits(a.res, b.res));
  EXPECT_TRUE(SameBits(a.tps, b.tps));
  EXPECT_TRUE(SameBits(a.lat, b.lat));
  EXPECT_TRUE(SameBits(a.internals, b.internals));
}

void ExpectSameRng(const RngState& a, const RngState& b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
  EXPECT_EQ(a.has_cached_gaussian, b.has_cached_gaussian);
  EXPECT_TRUE(SameBits(a.cached_gaussian, b.cached_gaussian));
}

/// Every field of two checkpoints, doubles compared by bit pattern.
void ExpectSameCheckpoint(const EventSessionCheckpoint& a,
                          const EventSessionCheckpoint& b) {
  EXPECT_EQ(a.launched, b.launched);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_TRUE(SameBits(a.clock_seconds, b.clock_seconds));
  ExpectSameObservationBits(a.default_observation, b.default_observation);
  EXPECT_TRUE(SameBits(a.sla.min_tps, b.sla.min_tps));
  EXPECT_TRUE(SameBits(a.sla.max_lat, b.sla.max_lat));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const EventRecord& x = a.records[i];
    const EventRecord& y = b.records[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.seq, y.seq);
    EXPECT_TRUE(SameBits(x.theta, y.theta));
    EXPECT_EQ(x.frozen, y.frozen);
    EXPECT_EQ(x.mode, y.mode);
    EXPECT_EQ(x.sla_violated, y.sla_violated);
    EXPECT_EQ(x.failed, y.failed);
    ExpectSameObservationBits(x.observation, y.observation);
    EXPECT_EQ(x.fault, y.fault);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_TRUE(SameBits(x.backoff_seconds, y.backoff_seconds));
    EXPECT_TRUE(SameBits(x.elapsed_seconds, y.elapsed_seconds));
    EXPECT_EQ(x.watchdog_killed, y.watchdog_killed);
    EXPECT_EQ(x.mode_after, y.mode_after);
    EXPECT_EQ(x.sla_violated_after, y.sla_violated_after);
  }
  ASSERT_EQ(a.in_flight.size(), b.in_flight.size());
  for (size_t i = 0; i < a.in_flight.size(); ++i) {
    SCOPED_TRACE("in-flight " + std::to_string(i));
    const InFlightRecord& x = a.in_flight[i];
    const InFlightRecord& y = b.in_flight[i];
    EXPECT_EQ(x.seq, y.seq);
    EXPECT_TRUE(SameBits(x.delivery_seconds, y.delivery_seconds));
    EXPECT_EQ(x.failed, y.failed);
    ExpectSameObservationBits(x.observation, y.observation);
    EXPECT_EQ(x.fault, y.fault);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_TRUE(SameBits(x.backoff_seconds, y.backoff_seconds));
    EXPECT_TRUE(SameBits(x.elapsed_seconds, y.elapsed_seconds));
    EXPECT_EQ(x.watchdog_killed, y.watchdog_killed);
  }
  EXPECT_EQ(a.simulator_state.num_evaluations,
            b.simulator_state.num_evaluations);
  EXPECT_TRUE(SameBits(a.simulator_state.simulated_seconds,
                       b.simulator_state.simulated_seconds));
  ExpectSameRng(a.simulator_state.rng, b.simulator_state.rng);
  ExpectSameRng(a.simulator_state.fault_rng, b.simulator_state.fault_rng);
  ExpectSameRng(a.supervisor_rng, b.supervisor_rng);
  EXPECT_EQ(a.metrics, b.metrics);
}

/// A session killed mid-flight under a 20% fault mix (stalls, retries,
/// watchdog kills, ladder transitions), read back from its checkpoint.
EventSessionCheckpoint FaultyHaltedCheckpoint(const std::string& path) {
  EventSessionOptions options;
  options.max_iterations = 30;
  options.max_in_flight = 4;
  options.fault.checkpoint_path = path;
  options.fault.checkpoint_period = 100;
  options.halt_after_completions = 20;
  DbInstanceSimulator sim = CaseStudySimulator(83, TwentyPercentFaults(29));
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  EventTuningSession session(&sim, &advisor, options);
  EXPECT_TRUE(session.Run().ok());
  EXPECT_TRUE(session.halted());
  return LoadEventSessionCheckpointFile(path).value();
}

TEST(EventCheckpointTest, RestoresEveryRecordFieldBitIdentically) {
  const std::string path = TempPath("event_forms.ckpt");
  const EventSessionCheckpoint checkpoint = FaultyHaltedCheckpoint(path);
  ASSERT_FALSE(checkpoint.in_flight.empty());
  ASSERT_TRUE(std::any_of(checkpoint.records.begin(), checkpoint.records.end(),
                          [](const EventRecord& r) { return r.failed; }));
  ASSERT_TRUE(std::any_of(
      checkpoint.records.begin(), checkpoint.records.end(),
      [](const EventRecord& r) { return !r.observation.internals.empty(); }));

  std::stringstream stream;
  ASSERT_TRUE(SaveEventSessionCheckpoint(checkpoint, &stream).ok());
  const auto loaded = LoadEventSessionCheckpoint(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCheckpoint(checkpoint, *loaded);
  std::remove(path.c_str());
}

/// The checkpoint file at `path` re-encoded without its process-global
/// metrics snapshot: the totals depend on everything else the test binary
/// ran before, so two otherwise byte-identical runs legitimately differ
/// there. Empty when the file does not load.
std::string BytesWithoutMetrics(const std::string& path) {
  Result<EventSessionCheckpoint> loaded = LoadEventSessionCheckpointFile(path);
  if (!loaded.ok()) return "";
  EventSessionCheckpoint checkpoint = std::move(loaded).value();
  checkpoint.metrics.clear();
  std::stringstream out;
  return SaveEventSessionCheckpoint(checkpoint, &out).ok() ? out.str() : "";
}

TEST_F(EventSessionTest, KillAndResumeMidFlightReplaysByteIdentical) {
  const std::string control_path = TempPath("event_control.ckpt");
  const std::string halted_path = TempPath("event_halted.ckpt");
  const FaultInjectionOptions faults = TwentyPercentFaults(21);

  EventSessionOptions base;
  base.max_iterations = 24;
  base.max_in_flight = 4;
  base.fault.checkpoint_period = 6;

  // Control: one uninterrupted run.
  EventSessionOptions control_options = base;
  control_options.fault.checkpoint_path = control_path;
  DbInstanceSimulator control_sim = CaseStudySimulator(67, faults);
  CboAdvisor control_advisor("cbo", 3, FastAdvisorOptions());
  EventTuningSession control_session(&control_sim, &control_advisor,
                                     control_options);
  const auto control = control_session.Run();
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  ASSERT_EQ(control->history.size(), 24u);

  // Interrupted: same run killed right after the 12th completion, with
  // speculative evaluations still in flight.
  EventSessionOptions halted_options = base;
  halted_options.fault.checkpoint_path = halted_path;
  halted_options.halt_after_completions = 12;
  {
    DbInstanceSimulator sim = CaseStudySimulator(67, faults);
    CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
    EventTuningSession session(&sim, &advisor, halted_options);
    const auto first_half = session.Run();
    ASSERT_TRUE(first_half.ok()) << first_half.status().ToString();
    EXPECT_TRUE(session.halted());
  }
  // The kill left launched-but-undelivered evaluations in the checkpoint.
  {
    const auto mid = LoadEventSessionCheckpointFile(halted_path);
    ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    EXPECT_EQ(mid->completed, 12);
    EXPECT_FALSE(mid->in_flight.empty())
        << "halt produced no pending evaluations; the resume test needs "
           "mid-flight state";
  }

  EventSessionOptions resume_options = base;
  resume_options.fault.checkpoint_path = halted_path;
  DbInstanceSimulator resumed_sim = CaseStudySimulator(67, faults);
  CboAdvisor resumed_advisor("cbo", 3, FastAdvisorOptions());
  EventTuningSession resumed_session(&resumed_sim, &resumed_advisor,
                                     resume_options);
  const auto resumed = resumed_session.Resume();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  ASSERT_EQ(resumed->history.size(), 24u);

  // Bitwise-identical history and event log.
  for (size_t i = 0; i < 24; ++i) {
    const IterationRecord& a = control->history[i];
    const IterationRecord& b = resumed->history[i];
    EXPECT_EQ(a.observation.theta, b.observation.theta) << "iteration " << i;
    EXPECT_EQ(a.observation.res, b.observation.res);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.fault, b.fault);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
    EXPECT_EQ(a.best_feasible_res, b.best_feasible_res);
  }
  const auto& ra = control_session.records();
  const auto& rb = resumed_session.records();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].kind, rb[i].kind) << "record " << i;
    EXPECT_EQ(ra[i].seq, rb[i].seq) << "record " << i;
    EXPECT_EQ(ra[i].theta, rb[i].theta) << "record " << i;
    EXPECT_EQ(ra[i].failed, rb[i].failed) << "record " << i;
    EXPECT_EQ(ra[i].fault, rb[i].fault) << "record " << i;
    EXPECT_EQ(ra[i].elapsed_seconds, rb[i].elapsed_seconds) << "record " << i;
    EXPECT_EQ(ra[i].mode_after, rb[i].mode_after) << "record " << i;
  }
  EXPECT_EQ(control->best_feasible_res, resumed->best_feasible_res);

  // Byte-identical final checkpoints (modulo the process-global metrics
  // snapshot, whose absolute totals depend on test execution order).
  const std::string control_bytes = BytesWithoutMetrics(control_path);
  const std::string resumed_bytes = BytesWithoutMetrics(halted_path);
  ASSERT_FALSE(control_bytes.empty());
  ASSERT_FALSE(resumed_bytes.empty());
  EXPECT_EQ(control_bytes, resumed_bytes);

  std::remove(control_path.c_str());
  std::remove(halted_path.c_str());
  std::remove((control_path + ".tmp").c_str());
  std::remove((halted_path + ".tmp").c_str());
}

/// Halts a fault-free CBO session with 3 evaluations in flight after 10
/// completions and returns its checkpoint, for the log-consistency cases.
EventSessionCheckpoint HaltedCheckpoint(const std::string& path) {
  EventSessionOptions options;
  options.max_iterations = 20;
  options.max_in_flight = 3;
  options.fault.checkpoint_path = path;
  options.fault.checkpoint_period = 5;
  options.halt_after_completions = 10;
  DbInstanceSimulator sim = CaseStudySimulator(79);
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  EventTuningSession session(&sim, &advisor, options);
  EXPECT_TRUE(session.Run().ok());
  EXPECT_TRUE(session.halted());
  return LoadEventSessionCheckpointFile(path).value();
}

/// Resumes the halted session from an edited checkpoint.
Status ResumeFromEdited(const std::string& path,
                        const EventSessionCheckpoint& edited) {
  EXPECT_TRUE(SaveEventSessionCheckpointFile(edited, path).ok());
  EventSessionOptions options;
  options.max_iterations = 20;
  options.max_in_flight = 3;
  options.fault.checkpoint_path = path;
  DbInstanceSimulator sim = CaseStudySimulator(79);
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  return EventTuningSession(&sim, &advisor, options).Resume().status();
}

TEST(EventCheckpointTest, ResumeRejectsLaunchCountThatDisagreesWithLog) {
  const std::string path = TempPath("event_launched.ckpt");
  EventSessionCheckpoint checkpoint = HaltedCheckpoint(path);
  ASSERT_EQ(checkpoint.launched, 12u);
  ASSERT_EQ(checkpoint.in_flight.size(), 2u);
  // A header claiming one launch fewer would make the resumed run issue
  // seq 11 a second time.
  checkpoint.launched = 11;
  EXPECT_EQ(ResumeFromEdited(path, checkpoint).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(EventCheckpointTest, ResumeRejectsDuplicateLaunchSeq) {
  const std::string path = TempPath("event_duplicate.ckpt");
  EventSessionCheckpoint checkpoint = HaltedCheckpoint(path);
  ASSERT_EQ(checkpoint.in_flight.size(), 2u);
  // Renumber the last launch (still in flight) to the seq of the one
  // before it and drop its pending outcome: a log where one launch id was
  // issued twice and one evaluation silently vanished.
  const uint64_t last = checkpoint.launched - 1;
  auto launch = std::find_if(
      checkpoint.records.begin(), checkpoint.records.end(),
      [last](const EventRecord& r) {
        return r.kind == EventKind::kLaunch && r.seq == last;
      });
  ASSERT_NE(launch, checkpoint.records.end());
  launch->seq = last - 1;
  ASSERT_EQ(checkpoint.in_flight.back().seq, last);
  checkpoint.in_flight.pop_back();
  EXPECT_EQ(ResumeFromEdited(path, checkpoint).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST_F(EventSessionTest, ResumeWithDivergentAdvisorSeedFailsLoudly) {
  const std::string path = TempPath("event_diverge.ckpt");
  EventSessionOptions options;
  options.max_iterations = 8;
  options.fault.checkpoint_path = path;
  options.fault.checkpoint_period = 4;
  {
    DbInstanceSimulator sim = CaseStudySimulator(71);
    CboAdvisor advisor("cbo", 3, FastAdvisorOptions(61));
    ASSERT_TRUE(EventTuningSession(&sim, &advisor, options).Run().ok());
  }
  DbInstanceSimulator sim = CaseStudySimulator(71);
  CboAdvisor other("cbo", 3, FastAdvisorOptions(62));  // different seed
  const auto resumed = EventTuningSession(&sim, &other, options).Resume();
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST_F(EventSessionTest, ResumeWithoutPathOrFileFails) {
  DbInstanceSimulator sim = CaseStudySimulator(73);
  CboAdvisor advisor("cbo", 3, FastAdvisorOptions());
  EventSessionOptions options;
  EXPECT_EQ(
      EventTuningSession(&sim, &advisor, options).Resume().status().code(),
      StatusCode::kFailedPrecondition);
  options.fault.checkpoint_path = TempPath("no_such_event.ckpt");
  EXPECT_EQ(
      EventTuningSession(&sim, &advisor, options).Resume().status().code(),
      StatusCode::kNotFound);
}

// ------------------------------------------------- sequential equivalence

/// The paper's sequential tuning loop (Section 4) written out directly:
/// evaluate the default to fix the SLA, then suggest → supervised replay →
/// observe until the budget is spent or the advisor runs out. The event
/// session under SequentialSessionOptions() must reproduce it bit for bit.
Result<SessionResult> ReferenceSequentialLoop(
    DbInstanceSimulator* sim, Advisor* advisor,
    const EventSessionOptions& options) {
  EvaluationSupervisor supervisor(sim, options.fault.retry,
                                  options.fault.supervisor_seed);
  RESTUNE_ASSIGN_OR_RETURN(
      const SupervisedEvaluation bootstrap,
      supervisor.Evaluate(sim->knob_space().DefaultTheta(),
                          /*retry_any_fault=*/true));
  if (!bootstrap.outcome.ok()) return Status::Aborted("bootstrap failed");
  SessionResult result;
  result.default_observation = bootstrap.outcome.observation();
  result.sla =
      DbInstanceSimulator::ConstraintsFromDefault(result.default_observation);
  result.best_feasible_res = result.default_observation.res;
  result.best_theta = result.default_observation.theta;
  RESTUNE_RETURN_IF_ERROR(
      advisor->Begin(result.default_observation, result.sla));
  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    Result<Vector> theta = advisor->SuggestNext();
    if (theta.status().code() == StatusCode::kOutOfRange) break;
    RESTUNE_RETURN_IF_ERROR(theta.status());
    RESTUNE_ASSIGN_OR_RETURN(const SupervisedEvaluation eval,
                             supervisor.Evaluate(*theta));
    IterationRecord rec;
    rec.iteration = iteration;
    rec.attempts = eval.attempts;
    rec.backoff_seconds = eval.backoff_seconds;
    rec.replay_seconds = sim->options().replay_seconds;
    if (eval.outcome.ok()) {
      rec.observation = eval.outcome.observation();
      RESTUNE_RETURN_IF_ERROR(advisor->Observe(rec.observation));
      rec.feasible = result.sla.IsFeasible(rec.observation,
                                           options.sla_tolerance);
      if (rec.feasible && rec.observation.res < result.best_feasible_res) {
        result.best_feasible_res = rec.observation.res;
        result.best_theta = rec.observation.theta;
        result.best_iteration = iteration;
      }
    } else {
      rec.observation.theta = *theta;
      rec.failed = true;
      rec.fault = eval.outcome.fault().kind;
      ++result.failed_iterations;
      RESTUNE_RETURN_IF_ERROR(
          advisor->ObserveFailure(*theta, eval.outcome.fault()));
    }
    rec.best_feasible_res = result.best_feasible_res;
    result.total_retries += eval.attempts - 1;
    result.history.push_back(rec);
  }
  return result;
}

void ExpectSameObservation(const Observation& a, const Observation& b) {
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.res, b.res);
  EXPECT_EQ(a.tps, b.tps);
  EXPECT_EQ(a.lat, b.lat);
  EXPECT_EQ(a.internals, b.internals);
}

void ExpectSameResult(const SessionResult& a, const SessionResult& b) {
  ExpectSameObservation(a.default_observation, b.default_observation);
  EXPECT_EQ(a.sla.min_tps, b.sla.min_tps);
  EXPECT_EQ(a.sla.max_lat, b.sla.max_lat);
  EXPECT_EQ(a.best_feasible_res, b.best_feasible_res);
  EXPECT_EQ(a.best_theta, b.best_theta);
  EXPECT_EQ(a.best_iteration, b.best_iteration);
  EXPECT_EQ(a.failed_iterations, b.failed_iterations);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.resumed, b.resumed);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    SCOPED_TRACE("history entry " + std::to_string(i));
    const IterationRecord& ra = a.history[i];
    const IterationRecord& rb = b.history[i];
    EXPECT_EQ(ra.iteration, rb.iteration);
    ExpectSameObservation(ra.observation, rb.observation);
    EXPECT_EQ(ra.feasible, rb.feasible);
    EXPECT_EQ(ra.best_feasible_res, rb.best_feasible_res);
    EXPECT_EQ(ra.replay_seconds, rb.replay_seconds);
    EXPECT_EQ(ra.failed, rb.failed);
    EXPECT_EQ(ra.fault, rb.fault);
    EXPECT_EQ(ra.attempts, rb.attempts);
    EXPECT_EQ(ra.backoff_seconds, rb.backoff_seconds);
  }
}

/// Two small repository tasks with internal metrics for OtterTune's
/// workload mapping.
std::vector<TuningTask> TinyRepository() {
  std::vector<TuningTask> tasks(2);
  Rng rng(5);
  for (int t = 0; t < 2; ++t) {
    DbInstanceSimulator sim = CaseStudySimulator(90 + t);
    tasks[t].name = "task-" + std::to_string(t);
    for (int i = 0; i < 8; ++i) {
      const Vector theta = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      tasks[t].observations.push_back(sim.Evaluate(theta).value());
    }
  }
  return tasks;
}

struct AdvisorCase {
  const char* name;
  std::function<std::unique_ptr<Advisor>()> make;
};

std::vector<AdvisorCase> SequentialAdvisorCases() {
  const Vector default_theta = CaseStudyKnobSpace().DefaultTheta();
  const std::vector<TuningTask> repository = TinyRepository();
  return {
      {"CBO",
       [] {
         return std::make_unique<CboAdvisor>("cbo", 3, FastAdvisorOptions());
       }},
      {"ResTune-w/o-Workload",
       [default_theta] {
         ResTuneAdvisorOptions options;
         options.workload_characterization_init = false;
         return std::make_unique<ResTuneAdvisor>(
             3, default_theta, std::vector<BaseLearner>{}, Vector{}, options);
       }},
      {"iTuned",
       [] {
         CboAdvisorOptions options = FastAdvisorOptions();
         options.acquisition = CboAcquisition::kUnconstrainedEi;
         return std::make_unique<CboAdvisor>("iTuned", 3, options);
       }},
      {"OtterTune",
       [repository] {
         OtterTuneAdvisorOptions options;
         options.initial_lhs_samples = 4;
         return std::make_unique<OtterTuneAdvisor>(3, repository, options);
       }},
      {"CDBTune", [] { return std::make_unique<CdbTuneAdvisor>(3); }},
      // 8 grid points: exhausts before the budget, ending the session early.
      {"GridSearch", [] { return std::make_unique<GridSearchAdvisor>(3, 2); }},
  };
}

/// Runs every advisor case both ways and compares. `seen` collects the
/// fault kinds of failed iterations, so a fault case can prove faults fired.
void ExpectSequentialEquivalence(const FaultInjectionOptions& faults,
                                 int iterations,
                                 std::multiset<FaultKind>* seen) {
  EventSessionOptions options = SequentialSessionOptions();
  options.max_iterations = iterations;
  options.sla_tolerance = 0.05;
  for (const AdvisorCase& c : SequentialAdvisorCases()) {
    SCOPED_TRACE(c.name);
    DbInstanceSimulator ref_sim = CaseStudySimulator(83, faults);
    const std::unique_ptr<Advisor> ref_advisor = c.make();
    const auto reference =
        ReferenceSequentialLoop(&ref_sim, ref_advisor.get(), options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    DbInstanceSimulator sim = CaseStudySimulator(83, faults);
    const std::unique_ptr<Advisor> advisor = c.make();
    EventTuningSession session(&sim, advisor.get(), options);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(session.safety().transitions(), 0);
    ExpectSameResult(*reference, *result);
    for (const IterationRecord& rec : result->history) {
      if (rec.failed) seen->insert(rec.fault);
    }
  }
}

TEST_F(EventSessionTest, SequentialOptionsReproduceTheSequentialLoop) {
  std::multiset<FaultKind> seen;
  ExpectSequentialEquivalence(FaultInjectionOptions{}, 14, &seen);
  EXPECT_TRUE(seen.empty());
}

TEST_F(EventSessionTest, SequentialOptionsReproduceTheLoopUnderFaults) {
  // 20% of attempts fault, stalls included: the watchdog must cut a stall
  // into exactly the failure the sequential loop records.
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.seed = 17;
  faults.crash_prob = 0.04;
  faults.timeout_prob = 0.04;
  faults.transient_prob = 0.06;
  faults.corrupt_prob = 0.03;
  faults.stall_prob = 0.03;
  std::multiset<FaultKind> seen;
  ExpectSequentialEquivalence(faults, 20, &seen);
  EXPECT_GT(seen.count(FaultKind::kStall), 0u);
  EXPECT_GT(seen.count(FaultKind::kCrash), 0u);
}

// ------------------------------------------------------ multi-flight pin

/// The surrogate advisors whose suggestions see pending points and the
/// trust region: CBO and iTuned on fresh GPs, ResTune from LHS, and ResTune
/// on a two-task repository.
std::vector<AdvisorCase> SurrogateAdvisorCases() {
  const Vector default_theta = CaseStudyKnobSpace().DefaultTheta();
  std::vector<BaseLearner> learners;
  std::vector<TuningTask> tasks = TinyRepository();
  for (size_t t = 0; t < tasks.size(); ++t) {
    tasks[t].meta_feature = t == 0 ? Vector{1.0, 0.0} : Vector{0.0, 1.0};
    learners.push_back(BaseLearner::Train(tasks[t]).value());
  }
  return {
      {"CBO",
       [] {
         return std::make_unique<CboAdvisor>("cbo", 3, FastAdvisorOptions());
       }},
      {"iTuned",
       [] {
         CboAdvisorOptions options = FastAdvisorOptions();
         options.acquisition = CboAcquisition::kUnconstrainedEi;
         return std::make_unique<CboAdvisor>("iTuned", 3, options);
       }},
      {"ResTune-w/o-Workload",
       [default_theta] {
         ResTuneAdvisorOptions options;
         options.meta.static_weight_iterations = 4;
         options.workload_characterization_init = false;
         return std::make_unique<ResTuneAdvisor>(
             3, default_theta, std::vector<BaseLearner>{}, Vector{}, options);
       }},
      {"ResTune",
       [default_theta, learners] {
         ResTuneAdvisorOptions options;
         options.meta.static_weight_iterations = 4;
         return std::make_unique<ResTuneAdvisor>(3, default_theta, learners,
                                                 Vector{0.9, 0.1}, options);
       }},
  };
}

TEST_F(EventSessionTest, MultiFlightLaunchLogsKeepTheirBits) {
  // Pins every launch of a three-in-flight session on the default ladder:
  // the fault mix drives each advisor through constrained and frozen, so
  // its suggestions are penalized near pending points and clamped into the
  // trust region. Each golden is an FNV-1a hash of the launches' θ bit
  // patterns, modes, frozen flags and SLA verdicts. The hashes were
  // recorded from a GCC build, like MetaLearnerPinTest's; other compilers
  // check only that both rungs were reached.
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.seed = 2;
  faults.crash_prob = 0.2;
  faults.timeout_prob = 0.2;
  faults.transient_prob = 0.05;
  faults.sla_violation_prob = 0.1;
  static const uint64_t kGolden[] = {
      0xac64baedd3acfdf0ull,  // CBO
      0xb95b81463ca22681ull,  // iTuned
      0x193f61fe14f1cefaull,  // ResTune-w/o-Workload
      0x2fabe73368b6558bull,  // ResTune
  };
  const std::vector<AdvisorCase> cases = SurrogateAdvisorCases();
  ASSERT_EQ(std::size(kGolden), cases.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(cases[c].name);
    DbInstanceSimulator sim = CaseStudySimulator(67, faults);
    const std::unique_ptr<Advisor> advisor = cases[c].make();
    EventSessionOptions options;
    options.max_iterations = 40;
    options.max_in_flight = 3;
    EventTuningSession session(&sim, advisor.get(), options);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Fnv1a hash;
    int constrained = 0;
    int frozen = 0;
    for (const EventRecord& record : session.records()) {
      if (record.kind != EventKind::kLaunch) continue;
      for (double v : record.theta) hash.AddDouble(v);
      hash.AddU64(static_cast<uint64_t>(record.mode));
      hash.AddU64(record.frozen ? 1 : 0);
      hash.AddU64(record.sla_violated ? 1 : 0);
      if (record.mode == SessionMode::kConstrained && !record.frozen) {
        ++constrained;
      }
      if (record.frozen) ++frozen;
    }
    EXPECT_GT(constrained, 0);
    EXPECT_GT(frozen, 0);
#if defined(__GNUC__) && !defined(__clang__)
    EXPECT_EQ(hash.hash(), kGolden[c]) << "launch-log hash 0x" << hash.Hex();
#endif
  }
}

}  // namespace
}  // namespace restune
