#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "gp/gp_model.h"
#include "gp/multi_output_gp.h"
#include "meta/base_learner.h"
#include "meta/meta_learner.h"
#include "meta/standardizer.h"
#include "service/restune_client.h"
#include "service/restune_server.h"
#include "tuner/cbo_advisor.h"
#include "tuner/checkpoint.h"
#include "tuner/harness.h"
#include "tuner/quarantine.h"
#include "tuner/event_session.h"
#include "tuner/supervisor.h"

namespace restune {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// A 1-knob space whose top end oversizes the buffer pool past instance
/// RAM — the paper's motivating knob-induced OOM.
KnobSpace PoolKnobSpace() {
  return KnobSpace({KnobDef{"innodb_buffer_pool_size_gb", 1.0, 16.0, 6.0,
                            false, KnobScale::kLinear, "buffer pool"}});
}

DbInstanceSimulator PoolSimulator(uint64_t seed, bool inject = true) {
  SimulatorOptions options;
  options.seed = seed;
  options.faults.enabled = inject;  // only the deterministic OOM is active
  return DbInstanceSimulator(PoolKnobSpace(), HardwareInstance('A').value(),
                             MakeWorkload(WorkloadKind::kTwitter).value(),
                             options);
}

// ---------------------------------------------------------- fault injector

TEST(FaultInjectorTest, DisabledInjectionDrawsNothing) {
  FaultInjector injector;  // enabled = false
  EXPECT_FALSE(injector.enabled());
  const RngState before = injector.rng_state();
  const EngineConfig config =
      EngineConfig::Defaults(HardwareInstance('A').value());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.Draw(config, HardwareInstance('A').value(), 180.0).kind,
              FaultKind::kNone);
  }
  const RngState after = injector.rng_state();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(before.s[i], after.s[i]);
}

TEST(FaultInjectorTest, EnablingInjectionDoesNotPerturbMeasurementNoise) {
  // The injector owns its own RNG stream: a simulator with injection on
  // (but all fault sources at probability 0) measures bit-identically to
  // one with injection off.
  FaultInjectionOptions quiet;
  quiet.enabled = true;
  DbInstanceSimulator plain = CaseStudySimulator(29);
  DbInstanceSimulator injected = CaseStudySimulator(29, quiet);
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    const Vector theta = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    const Observation a = plain.Evaluate(theta).value();
    const Observation b = injected.Evaluate(theta).value();
    EXPECT_EQ(a.res, b.res);
    EXPECT_EQ(a.tps, b.tps);
    EXPECT_EQ(a.lat, b.lat);
  }
}

TEST(FaultInjectorTest, FaultSequenceIsDeterministic) {
  DbInstanceSimulator a = CaseStudySimulator(5, TwentyPercentFaults());
  DbInstanceSimulator b = CaseStudySimulator(5, TwentyPercentFaults());
  const Vector theta = a.knob_space().DefaultTheta();
  int faults_seen = 0;
  for (int i = 0; i < 60; ++i) {
    const EvaluationOutcome oa = a.TryEvaluate(theta).value();
    const EvaluationOutcome ob = b.TryEvaluate(theta).value();
    ASSERT_EQ(oa.ok(), ob.ok());
    if (!oa.ok()) {
      ++faults_seen;
      EXPECT_EQ(oa.fault().kind, ob.fault().kind);
    } else {
      EXPECT_EQ(oa.observation().tps, ob.observation().tps);
    }
  }
  EXPECT_GT(faults_seen, 0);  // 60 draws at 20% must fault at least once
}

TEST(FaultInjectorTest, OversizedBufferPoolCrashesDeterministically) {
  DbInstanceSimulator sim = PoolSimulator(7);
  // θ = 1 resolves to a 16 GB pool on a 12 GB instance: OOM every time.
  for (int i = 0; i < 3; ++i) {
    const EvaluationOutcome outcome = sim.TryEvaluate({1.0}).value();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.fault().kind, FaultKind::kCrash);
    EXPECT_NE(outcome.fault().message.find("oom"), std::string::npos);
  }
  // A modest pool is fine.
  EXPECT_TRUE(sim.TryEvaluate({0.0}).value().ok());
}

TEST(FaultInjectorTest, CorruptedObservationsAreDetectable) {
  FaultInjectionOptions options;
  options.enabled = true;
  FaultInjector injector(options);
  for (int i = 0; i < 10; ++i) {
    Observation obs;
    obs.res = 4.0;
    obs.tps = 900.0;
    obs.lat = 2.0;
    EXPECT_FALSE(EvaluationSupervisor::IsCorrupted(obs));
    injector.Corrupt(&obs);
    EXPECT_TRUE(EvaluationSupervisor::IsCorrupted(obs));
  }
}

// ---------------------------------------------------- evaluation supervisor

TEST(SupervisorTest, TransientFaultsAreRetriedToSuccess) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.transient_prob = 0.3;
  DbInstanceSimulator sim = CaseStudySimulator(19, faults);
  RetryPolicy policy;
  policy.max_attempts = 6;
  EvaluationSupervisor supervisor(&sim, policy);
  const Vector theta = sim.knob_space().DefaultTheta();
  int total_attempts = 0;
  for (int i = 0; i < 40; ++i) {
    const auto supervised = supervisor.Evaluate(theta);
    ASSERT_TRUE(supervised.ok());
    EXPECT_TRUE(supervised->outcome.ok());
    total_attempts += supervised->attempts;
  }
  EXPECT_GT(total_attempts, 40);  // 30% transient rate must cost retries
}

TEST(SupervisorTest, CrashIsPersistentAndNotRetried) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.crash_prob = 1.0;
  DbInstanceSimulator sim = CaseStudySimulator(23, faults);
  EvaluationSupervisor supervisor(&sim);
  const auto supervised =
      supervisor.Evaluate(sim.knob_space().DefaultTheta());
  ASSERT_TRUE(supervised.ok());
  ASSERT_FALSE(supervised->outcome.ok());
  EXPECT_EQ(supervised->outcome.fault().kind, FaultKind::kCrash);
  EXPECT_EQ(supervised->attempts, 1);
  EXPECT_FALSE(supervised->retries_exhausted);
  EXPECT_EQ(supervised->backoff_seconds, 0.0);
}

TEST(SupervisorTest, RetriesExhaustOnPersistentTransientFault) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.transient_prob = 1.0;
  DbInstanceSimulator sim = CaseStudySimulator(27, faults);
  RetryPolicy policy;
  policy.max_attempts = 4;
  EvaluationSupervisor supervisor(&sim, policy);
  const auto supervised =
      supervisor.Evaluate(sim.knob_space().DefaultTheta());
  ASSERT_TRUE(supervised.ok());
  ASSERT_FALSE(supervised->outcome.ok());
  EXPECT_EQ(supervised->outcome.fault().kind, FaultKind::kTransient);
  EXPECT_EQ(supervised->attempts, 4);
  EXPECT_TRUE(supervised->retries_exhausted);
  EXPECT_GT(supervised->backoff_seconds, 0.0);
}

TEST(SupervisorTest, DeadlineReclassifiesSlowFaultsAsTimeout) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.transient_prob = 1.0;  // burns 0.1 * replay_seconds = 18 s
  DbInstanceSimulator sim = CaseStudySimulator(31, faults);
  RetryPolicy policy;
  policy.deadline_seconds = 1.0;
  EvaluationSupervisor supervisor(&sim, policy);
  const auto supervised =
      supervisor.Evaluate(sim.knob_space().DefaultTheta());
  ASSERT_TRUE(supervised.ok());
  ASSERT_FALSE(supervised->outcome.ok());
  // A transient error that exceeded the deadline counts as a straggler —
  // persistent, so no retries are wasted on it.
  EXPECT_EQ(supervised->outcome.fault().kind, FaultKind::kTimeout);
  EXPECT_EQ(supervised->attempts, 1);
}

TEST(SupervisorTest, PlainExponentialBackoffIsExact) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.transient_prob = 1.0;
  DbInstanceSimulator sim = CaseStudySimulator(37, faults);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.decorrelated_jitter = false;
  policy.initial_backoff_seconds = 5.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 120.0;
  EvaluationSupervisor supervisor(&sim, policy);
  const auto supervised =
      supervisor.Evaluate(sim.knob_space().DefaultTheta());
  ASSERT_TRUE(supervised.ok());
  EXPECT_DOUBLE_EQ(supervised->backoff_seconds, 5.0 + 10.0 + 20.0);

  // The cap truncates the exponential tail.
  policy.max_backoff_seconds = 12.0;
  EvaluationSupervisor capped(&sim, policy);
  const auto capped_eval =
      capped.Evaluate(sim.knob_space().DefaultTheta());
  ASSERT_TRUE(capped_eval.ok());
  EXPECT_DOUBLE_EQ(capped_eval->backoff_seconds, 5.0 + 10.0 + 12.0);
}

TEST(SupervisorTest, BootstrapModeRetriesNonRetryableFaults) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.crash_prob = 1.0;
  DbInstanceSimulator sim = CaseStudySimulator(41, faults);
  RetryPolicy policy;
  policy.max_attempts = 3;
  EvaluationSupervisor supervisor(&sim, policy);
  const auto supervised =
      supervisor.Evaluate(sim.knob_space().DefaultTheta(),
                          /*retry_any_fault=*/true);
  ASSERT_TRUE(supervised.ok());
  ASSERT_FALSE(supervised->outcome.ok());
  EXPECT_EQ(supervised->attempts, 3);
  EXPECT_TRUE(supervised->retries_exhausted);
}

TEST(SupervisorTest, DeadlineExactlyAtAttemptCostIsNotExceeded) {
  // The per-attempt deadline is exclusive: an attempt that burns *exactly*
  // the deadline is a straggler survivor, not a timeout. 0.5 keeps the
  // boundary value floating-point exact (0.5 * 180 = 90.0 bitwise).
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.transient_prob = 1.0;
  faults.transient_cost_fraction = 0.5;
  DbInstanceSimulator sim = CaseStudySimulator(29, faults);
  const double attempt_cost = 0.5 * sim.options().replay_seconds;

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.deadline_seconds = attempt_cost;  // == elapsed, not >
  {
    EvaluationSupervisor supervisor(&sim, policy);
    const auto supervised =
        supervisor.Evaluate(sim.knob_space().DefaultTheta());
    ASSERT_TRUE(supervised.ok());
    ASSERT_FALSE(supervised->outcome.ok());
    EXPECT_EQ(supervised->outcome.fault().kind, FaultKind::kTransient)
        << "elapsed == deadline must keep the original classification";
    EXPECT_EQ(supervised->attempts, 3);  // still retryable
    EXPECT_TRUE(supervised->retries_exhausted);
  }
  // One tick below the attempt cost flips the verdict: reclassified as a
  // (non-retryable) timeout on the very first attempt.
  policy.deadline_seconds = attempt_cost - 1e-9;
  {
    EvaluationSupervisor supervisor(&sim, policy);
    const auto supervised =
        supervisor.Evaluate(sim.knob_space().DefaultTheta());
    ASSERT_TRUE(supervised.ok());
    ASSERT_FALSE(supervised->outcome.ok());
    EXPECT_EQ(supervised->outcome.fault().kind, FaultKind::kTimeout);
    EXPECT_EQ(supervised->attempts, 1);
  }
}

TEST(SupervisorTest, ZeroRetryBudgetClampsToSingleAttempt) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.transient_prob = 1.0;
  DbInstanceSimulator sim = CaseStudySimulator(33, faults);
  RetryPolicy policy;
  policy.max_attempts = 0;  // degenerate budget: must still attempt once
  EvaluationSupervisor supervisor(&sim, policy);
  const auto supervised =
      supervisor.Evaluate(sim.knob_space().DefaultTheta());
  ASSERT_TRUE(supervised.ok());
  ASSERT_FALSE(supervised->outcome.ok());
  EXPECT_EQ(supervised->attempts, 1);
  EXPECT_EQ(supervised->backoff_seconds, 0.0);
  EXPECT_TRUE(supervised->retries_exhausted);

  // A clean simulator with the same degenerate budget still succeeds.
  DbInstanceSimulator clean = CaseStudySimulator(33);
  EvaluationSupervisor clean_supervisor(&clean, policy);
  const auto clean_eval =
      clean_supervisor.Evaluate(clean.knob_space().DefaultTheta());
  ASSERT_TRUE(clean_eval.ok());
  EXPECT_TRUE(clean_eval->outcome.ok());
  EXPECT_EQ(clean_eval->attempts, 1);
}

// --------------------------------------------------------------- quarantine

TEST(QuarantineTest, ContainsUsesLInfRadius) {
  QuarantineOptions options;
  options.radius = 0.05;
  KnobQuarantine quarantine(options);
  quarantine.Add({0.5, 0.5});
  EXPECT_EQ(quarantine.size(), 1u);
  EXPECT_TRUE(quarantine.Contains({0.5, 0.5}));
  EXPECT_TRUE(quarantine.Contains({0.54, 0.46}));
  EXPECT_FALSE(quarantine.Contains({0.56, 0.5}));
  EXPECT_FALSE(quarantine.Contains({0.5, 0.5, 0.5}));  // dim mismatch
}

TEST(QuarantineTest, DisabledAndCappedBehaviors) {
  QuarantineOptions off;
  off.enabled = false;
  KnobQuarantine disabled(off);
  disabled.Add({0.5});
  EXPECT_TRUE(disabled.empty());
  EXPECT_FALSE(disabled.Contains({0.5}));

  QuarantineOptions capped;
  capped.max_regions = 2;
  KnobQuarantine small(capped);
  small.Add({0.1});
  small.Add({0.2});
  small.Add({0.3});
  EXPECT_EQ(small.size(), 2u);
}

TEST(QuarantineTest, AdvisorNeverResuggestsNearCrashedConfig) {
  DbInstanceSimulator sim = CaseStudySimulator(43);
  CboAdvisorOptions options;
  options.initial_lhs_samples = 2;
  options.quarantine.radius = 0.08;
  CboAdvisor advisor("cbo", 3, options);
  const Observation def = sim.EvaluateDefault().value();
  ASSERT_TRUE(
      advisor.Begin(def, DbInstanceSimulator::ConstraintsFromDefault(def))
          .ok());

  const Vector crashed = advisor.SuggestNext().value();
  EvaluationFault crash;
  crash.kind = FaultKind::kCrash;
  ASSERT_TRUE(advisor.ObserveFailure(crashed, crash).ok());
  EXPECT_EQ(advisor.quarantine().size(), 1u);

  // A transient failure is not config-induced: no quarantine growth.
  EvaluationFault transient;
  transient.kind = FaultKind::kTransient;
  ASSERT_TRUE(advisor.ObserveFailure({0.9, 0.9, 0.9}, transient).ok());
  EXPECT_EQ(advisor.quarantine().size(), 1u);

  for (int i = 0; i < 8; ++i) {
    const Vector theta = advisor.SuggestNext().value();
    double linf = 0.0;
    for (size_t c = 0; c < theta.size(); ++c) {
      linf = std::max(linf, std::fabs(theta[c] - crashed[c]));
    }
    EXPECT_GT(linf, options.quarantine.radius)
        << "iteration " << i << " re-suggested a quarantined config";
    ASSERT_TRUE(advisor.Observe(sim.Evaluate(theta).value()).ok());
  }
}

TEST(QuarantineTest, WholeBoxQuarantineDoesNotDeadlockAcquisition) {
  // A quarantine radius of 1.0 around any interior point covers the whole
  // normalized knob box (L-inf distance to any corner is <= 1). Every
  // candidate the sweep draws is rejected — the advisor must still
  // terminate and hand back a finite suggestion rather than spin forever
  // rerolling.
  DbInstanceSimulator sim = CaseStudySimulator(47);
  CboAdvisorOptions options;
  options.initial_lhs_samples = 2;
  options.quarantine.radius = 1.0;
  CboAdvisor advisor("cbo", 3, options);
  const Observation def = sim.EvaluateDefault().value();
  ASSERT_TRUE(
      advisor.Begin(def, DbInstanceSimulator::ConstraintsFromDefault(def))
          .ok());

  EvaluationFault crash;
  crash.kind = FaultKind::kCrash;
  ASSERT_TRUE(
      advisor.ObserveFailure(advisor.SuggestNext().value(), crash).ok());
  ASSERT_EQ(advisor.quarantine().size(), 1u);

  for (int i = 0; i < 4; ++i) {
    const auto suggestion = advisor.SuggestNext();
    ASSERT_TRUE(suggestion.ok()) << suggestion.status().ToString();
    ASSERT_EQ(suggestion->size(), 3u);
    for (double v : *suggestion) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    ASSERT_TRUE(advisor.Observe(sim.Evaluate(*suggestion).value()).ok());
  }
}

// --------------------------------------------------- session fault handling

TEST(SessionFaultTest, SessionSurvivesTwentyPercentFaults) {
  DbInstanceSimulator sim = CaseStudySimulator(47, TwentyPercentFaults());
  CboAdvisorOptions options;
  options.initial_lhs_samples = 5;
  CboAdvisor advisor("cbo", 3, options);
  EventSessionOptions session_options = SequentialSessionOptions();
  session_options.max_iterations = 30;
  EventTuningSession session(&sim, &advisor, session_options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->history.size(), 30u);
  EXPECT_GT(result->failed_iterations, 0);
  EXPECT_GT(result->total_retries, 0);
  EXPECT_LE(result->best_feasible_res, result->default_observation.res);
  for (const IterationRecord& rec : result->history) {
    if (rec.failed) {
      EXPECT_NE(rec.fault, FaultKind::kNone);
      EXPECT_FALSE(rec.feasible);
    }
  }
}

TEST(SessionFaultTest, UnrecoverableBootstrapAborts) {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.crash_prob = 1.0;
  DbInstanceSimulator sim = CaseStudySimulator(59, faults);
  CboAdvisor advisor("cbo", 3);
  EventTuningSession session(&sim, &advisor, SequentialSessionOptions());
  const auto result = session.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
}

// ------------------------------------------------------- harness plumbing

TEST(HarnessFaultTest, RunMethodForwardsFaultConfiguration) {
  ExperimentConfig config;
  config.iterations = 10;
  config.seed = 5;
  config.faults = TwentyPercentFaults();
  config.fault_tolerance.retry.max_attempts = 4;
  DbInstanceSimulator sim =
      MakeSimulator(CaseStudyKnobSpace(), 'A',
                    MakeWorkload(WorkloadKind::kTwitter).value(), config)
          .value();
  EXPECT_TRUE(sim.fault_injector().enabled());
  const auto result = RunMethod(MethodKind::kResTuneNoMl, &sim, {}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->history.size(), 10u);
}

// ----------------------------------------------------------- server/client

class ServerFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Logger::SetThreshold(LogLevel::kError);
    characterizer_ =
        std::make_unique<WorkloadCharacterizer>(TrainDefaultCharacterizer());
  }
  static void TearDownTestSuite() {
    characterizer_.reset();
  }
  static std::unique_ptr<WorkloadCharacterizer> characterizer_;

  DbInstanceSimulator MakeSim(uint64_t seed,
                              FaultInjectionOptions faults = {}) {
    return CaseStudySimulator(seed, faults);
  }
};

std::unique_ptr<WorkloadCharacterizer> ServerFaultTest::characterizer_;

TEST_F(ServerFaultTest, RecommendIsIdempotentUntilReported) {
  DbInstanceSimulator sim = MakeSim(81);
  ResTuneClient client(&sim, characterizer_.get());
  ResTuneServer server;
  const auto session = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(session.ok());

  const auto first = server.Recommend(*session);
  ASSERT_TRUE(first.ok());
  const auto replayed = server.Recommend(*session);  // lost response, re-ask
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(first->iteration, replayed->iteration);
  EXPECT_EQ(first->theta, replayed->theta);

  const auto report = client.EvaluateRecommendation(*first);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(server.ReportEvaluation(*report).ok());
  const auto next = server.Recommend(*session);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->iteration, first->iteration + 1);
}

TEST_F(ServerFaultTest, DuplicateReportsAreNoOpsAndFutureOnesRejected) {
  DbInstanceSimulator sim = MakeSim(83);
  ResTuneClient client(&sim, characterizer_.get());
  ResTuneServer server;
  const auto session = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(session.ok());

  const auto rec = server.Recommend(*session);
  ASSERT_TRUE(rec.ok());
  const auto report = client.EvaluateRecommendation(*rec);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(server.ReportEvaluation(*report).ok());
  // The client's retry delivers the same report twice: silently accepted.
  EXPECT_TRUE(server.ReportEvaluation(*report).ok());

  EvaluationReport future = *report;
  future.iteration = 99;
  EXPECT_EQ(server.ReportEvaluation(future).code(),
            StatusCode::kInvalidArgument);
  EvaluationReport never_recommended = *report;
  never_recommended.iteration = 0;
  EXPECT_EQ(server.ReportEvaluation(never_recommended).code(),
            StatusCode::kInvalidArgument);

  const auto summary = server.FinishSession(*session);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->iterations, 1);  // the duplicate did not double-count
}

TEST_F(ServerFaultTest, RejectsMalformedReportsAndSubmissions) {
  DbInstanceSimulator sim = MakeSim(87);
  ResTuneClient client(&sim, characterizer_.get());
  ResTuneServer server;
  const auto good = client.PrepareSubmission();
  ASSERT_TRUE(good.ok());

  TargetTaskSubmission bad = *good;
  bad.default_theta[0] = kNan;
  EXPECT_FALSE(server.StartSession(bad).ok());
  bad = *good;
  bad.default_theta[0] = 1e154;  // finite, but outside the knob box
  EXPECT_FALSE(server.StartSession(bad).ok());
  bad = *good;
  bad.default_observation.theta[0] = -0.5;
  EXPECT_FALSE(server.StartSession(bad).ok());
  bad = *good;
  bad.meta_feature[0] = kInf;
  EXPECT_FALSE(server.StartSession(bad).ok());
  bad = *good;
  bad.default_observation.tps = 0.0;
  EXPECT_FALSE(server.StartSession(bad).ok());
  bad = *good;
  bad.default_observation.res = -1.0;
  EXPECT_FALSE(server.StartSession(bad).ok());

  const auto session = server.StartSession(*good);
  ASSERT_TRUE(session.ok());
  const auto rec = server.Recommend(*session);
  ASSERT_TRUE(rec.ok());
  const auto report = client.EvaluateRecommendation(*rec);
  ASSERT_TRUE(report.ok());

  EvaluationReport corrupt = *report;
  corrupt.observation.res = kNan;
  EXPECT_EQ(server.ReportEvaluation(corrupt).code(),
            StatusCode::kInvalidArgument);
  corrupt = *report;
  corrupt.observation.tps = 0.0;
  EXPECT_EQ(server.ReportEvaluation(corrupt).code(),
            StatusCode::kInvalidArgument);
  corrupt = *report;
  corrupt.observation.theta = {0.5};
  EXPECT_EQ(server.ReportEvaluation(corrupt).code(),
            StatusCode::kInvalidArgument);
  // The well-formed original still lands.
  EXPECT_TRUE(server.ReportEvaluation(*report).ok());
}

TEST_F(ServerFaultTest, FaultReportsFeedFailureLearningAndSessionContinues) {
  DbInstanceSimulator sim = MakeSim(89);
  ResTuneClient client(&sim, characterizer_.get());
  ResTuneServer server;
  const auto session = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(session.ok());

  const auto rec = server.Recommend(*session);
  ASSERT_TRUE(rec.ok());
  EvaluationReport failed;
  failed.session_id = *session;
  failed.iteration = rec->iteration;
  failed.fault = FaultKind::kCrash;
  ASSERT_TRUE(server.ReportEvaluation(failed).ok());

  // The session moves on to the next iteration after the failure.
  const auto next = server.Recommend(*session);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->iteration, rec->iteration + 1);
  const auto report = client.EvaluateRecommendation(*next);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(server.ReportEvaluation(*report).ok());
}

TEST_F(ServerFaultTest, FinishIsIdempotentAndFinishedSessionsRejectTraffic) {
  DbInstanceSimulator sim = MakeSim(91);
  ResTuneClient client(&sim, characterizer_.get());
  ResTuneServer server;
  const auto session = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(session.ok());
  const auto rec = server.Recommend(*session);
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(
      server.ReportEvaluation(*client.EvaluateRecommendation(*rec)).ok());

  const auto first = server.FinishSession(*session);
  ASSERT_TRUE(first.ok());
  const auto again = server.FinishSession(*session);  // client retry
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->iterations, again->iterations);
  EXPECT_EQ(first->best_feasible_res, again->best_feasible_res);
  EXPECT_EQ(server.finished_sessions(), 1u);

  EXPECT_EQ(server.Recommend(*session).status().code(),
            StatusCode::kFailedPrecondition);
  EvaluationReport report;
  report.session_id = *session;
  report.iteration = 1;
  EXPECT_EQ(server.ReportEvaluation(report).code(),
            StatusCode::kFailedPrecondition);
  // A session id that never existed still reports NotFound.
  EXPECT_EQ(server.Recommend(999).status().code(), StatusCode::kNotFound);
}

TEST_F(ServerFaultTest, CheckpointRestoresServerMidSession) {
  DbInstanceSimulator sim = MakeSim(93);
  ResTuneClient client(&sim, characterizer_.get());
  ServerOptions options;
  options.min_observations_to_archive = 3;
  ResTuneServer server(options);
  const auto session = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 4; ++i) {
    const auto rec = server.Recommend(*session);
    ASSERT_TRUE(rec.ok());
    const auto report = client.EvaluateRecommendation(*rec);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(server.ReportEvaluation(*report).ok());
  }

  std::stringstream stream;
  ASSERT_TRUE(server.SaveCheckpoint(&stream).ok());
  ResTuneServer restored(options);
  const Status load = restored.LoadCheckpoint(&stream);
  ASSERT_TRUE(load.ok()) << load.ToString();
  EXPECT_EQ(restored.active_sessions(), 1u);

  // The restored server continues the session exactly where the original
  // would: identical recommendations, bitwise.
  for (int i = 0; i < 3; ++i) {
    const auto a = server.Recommend(*session);
    const auto b = restored.Recommend(*session);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->iteration, b->iteration);
    EXPECT_EQ(a->theta, b->theta);
    const auto report = client.EvaluateRecommendation(*a);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(server.ReportEvaluation(*report).ok());
    ASSERT_TRUE(restored.ReportEvaluation(*report).ok());
  }
  const auto sa = server.FinishSession(*session);
  const auto sb = restored.FinishSession(*session);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa->best_feasible_res, sb->best_feasible_res);
  EXPECT_EQ(sa->archived_to_repository, sb->archived_to_repository);
}

TEST_F(ServerFaultTest, CheckpointPreservesOutstandingRecommendation) {
  DbInstanceSimulator sim = MakeSim(97);
  ResTuneClient client(&sim, characterizer_.get());
  ResTuneServer server;
  const auto session = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(session.ok());
  const auto rec = server.Recommend(*session);  // crash with this in flight
  ASSERT_TRUE(rec.ok());

  std::stringstream stream;
  ASSERT_TRUE(server.SaveCheckpoint(&stream).ok());
  ResTuneServer restored;
  ASSERT_TRUE(restored.LoadCheckpoint(&stream).ok());
  const auto replayed = restored.Recommend(*session);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->iteration, rec->iteration);
  EXPECT_EQ(replayed->theta, rec->theta);
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs a checkpoint case with the safety ladder on (the parameter) and
/// off.
class ServerCheckpointTest : public ServerFaultTest,
                             public ::testing::WithParamInterface<bool> {};

TEST_P(ServerCheckpointTest,
       CheckpointReloadResavesBytesAndRecommendsIdentically) {
  ServerOptions options;
  options.min_observations_to_archive = 3;
  options.use_event_sessions = GetParam();
  ResTuneServer server(options);
  DbInstanceSimulator sim = MakeSim(101);
  ResTuneClient client(&sim, characterizer_.get());

  // A finished session archived into the repository, then an active one
  // that trains on it, saw a fault and holds a speculative batch.
  const auto first = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 4; ++i) {
    const auto rec = server.Recommend(*first);
    ASSERT_TRUE(rec.ok());
    ASSERT_TRUE(
        server.ReportEvaluation(*client.EvaluateRecommendation(*rec)).ok());
  }
  ASSERT_TRUE(server.FinishSession(*first).ok());
  const auto second = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(second.ok());
  for (int i = 0; i < 3; ++i) {
    const auto rec = server.Recommend(*second);
    ASSERT_TRUE(rec.ok());
    EvaluationReport report = *client.EvaluateRecommendation(*rec);
    if (i == 1) report.fault = FaultKind::kCrash;
    ASSERT_TRUE(server.ReportEvaluation(report).ok());
  }
  const auto batch = server.RecommendBatch(*second, 2);
  ASSERT_TRUE(batch.ok());

  std::stringstream stream;
  ASSERT_TRUE(server.SaveCheckpoint(&stream).ok());
  const std::string saved = stream.str();
  ResTuneServer restored(options);
  ASSERT_TRUE(restored.LoadCheckpoint(&stream).ok());

  // Re-saving the restored server reproduces the original bytes.
  std::stringstream resaved;
  ASSERT_TRUE(restored.SaveCheckpoint(&resaved).ok());
  EXPECT_EQ(resaved.str(), saved);
  // The next Recommend — the outstanding one, then, once the batch is
  // reported, a fresh advisor suggestion — is bit-identical on both.
  std::vector<ResTuneServer*> servers = {&server, &restored};
  for (ResTuneServer* s : servers) {
    const auto outstanding = s->Recommend(*second);
    ASSERT_TRUE(outstanding.ok());
    EXPECT_EQ(outstanding->iteration, batch->front().iteration);
    EXPECT_TRUE(SameBits(outstanding->theta, batch->front().theta));
  }
  for (const KnobRecommendation& rec : *batch) {
    const auto report = client.EvaluateRecommendation(rec);
    ASSERT_TRUE(report.ok());
    for (ResTuneServer* s : servers) {
      ASSERT_TRUE(s->ReportEvaluation(*report).ok());
    }
  }
  const auto next = server.Recommend(*second);
  const auto replayed = restored.Recommend(*second);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->iteration, next->iteration);
  EXPECT_TRUE(SameBits(replayed->theta, next->theta));
}

INSTANTIATE_TEST_SUITE_P(LadderOnAndOff, ServerCheckpointTest,
                         ::testing::Bool());

/// What one seeded served session produced: every recommended θ in issue
/// order, and the checkpoint bytes before and after a save → load cycle.
struct ServedRun {
  std::vector<Vector> thetas;
  std::string saved;
  std::string resaved;
};

/// Drives one seeded server session: four reports (the third a crash), a
/// speculative batch of two, a save → load → re-save, then the batch's
/// reports and one more recommendation on the restored server.
void DriveSeededServerSession(const ServerOptions& options,
                              const WorkloadCharacterizer& characterizer,
                              ServedRun* run) {
  DbInstanceSimulator sim = CaseStudySimulator(103);
  ResTuneClient client(&sim, &characterizer);
  ResTuneServer server(options);
  const auto session = server.StartSession(*client.PrepareSubmission());
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 4; ++i) {
    const auto rec = server.Recommend(*session);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    run->thetas.push_back(rec->theta);
    EvaluationReport report = *client.EvaluateRecommendation(*rec);
    if (i == 2) report.fault = FaultKind::kCrash;
    ASSERT_TRUE(server.ReportEvaluation(report).ok());
  }
  const auto batch = server.RecommendBatch(*session, 2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const KnobRecommendation& rec : *batch) run->thetas.push_back(rec.theta);

  std::stringstream stream;
  ASSERT_TRUE(server.SaveCheckpoint(&stream).ok());
  run->saved = stream.str();
  ResTuneServer restored(options);
  ASSERT_TRUE(restored.LoadCheckpoint(&stream).ok());
  std::stringstream resaved;
  ASSERT_TRUE(restored.SaveCheckpoint(&resaved).ok());
  run->resaved = resaved.str();

  for (const KnobRecommendation& rec : *batch) {
    const auto report = client.EvaluateRecommendation(rec);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(restored.ReportEvaluation(*report).ok());
  }
  const auto next = restored.Recommend(*session);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  run->thetas.push_back(next->theta);
}

TEST_F(ServerFaultTest, NeverTrippingLadderServesTheLadderOffSession) {
  ServerOptions off;
  off.use_event_sessions = false;
  ServerOptions never_tripping;
  never_tripping.use_event_sessions = true;
  never_tripping.safety = SequentialSessionOptions().safety;

  ServedRun a;
  ServedRun b;
  DriveSeededServerSession(off, *characterizer_, &a);
  DriveSeededServerSession(never_tripping, *characterizer_, &b);
  ASSERT_EQ(a.thetas.size(), 7u);
  ASSERT_EQ(b.thetas.size(), a.thetas.size());
  for (size_t i = 0; i < a.thetas.size(); ++i) {
    EXPECT_TRUE(SameBits(a.thetas[i], b.thetas[i])) << "recommendation " << i;
  }
  ASSERT_FALSE(a.saved.empty());
  EXPECT_EQ(a.saved, b.saved);
  EXPECT_EQ(a.resaved, a.saved);
  EXPECT_EQ(b.resaved, b.saved);
  // The saved file's size, CRC-32 and an FNV-1a 64 of its bytes, recorded
  // from a GCC build before the CRC kernel and the vector encoder were
  // rewritten. The FNV hash checks the encoder independently of the CRC
  // kernel; other compilers may round the session's θ differently.
  Fnv1a hash;
  hash.AddBytes(a.saved.data(), a.saved.size());
  RecordProperty("checkpoint_bytes", static_cast<int>(a.saved.size()));
  RecordProperty("checkpoint_crc32", std::to_string(Crc32(a.saved)));
  RecordProperty("checkpoint_fnv1a", hash.Hex());
#if defined(__GNUC__) && !defined(__clang__)
  EXPECT_EQ(a.saved.size(), 1179u);
  EXPECT_EQ(Crc32(a.saved), 2916498067u);
  EXPECT_EQ(hash.hash(), 0xb298cfb2db7abbeeull)
      << "checkpoint hash 0x" << hash.Hex();
#endif
}

/// The payload of a server checkpoint holding one active session and no
/// repository tasks or finished sessions, split so a test can edit the
/// session's stored iteration and its event log.
struct EditableServerCheckpoint {
  std::string head;  // everything before the iteration
  int64_t iteration = 0;
  std::string middle;  // from after the iteration to the log count
  std::vector<EventRecord> log;

  static EditableServerCheckpoint Decode(const std::string& payload) {
    EditableServerCheckpoint c;
    ByteReader in(payload);
    const auto at = [&] { return payload.size() - in.remaining(); };
    uint64_t u64 = 0;
    uint32_t u32 = 0;
    EXPECT_TRUE(in.GetU64(&u64).ok());  // next session id
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(in.GetU32(&u32).ok());
    EXPECT_EQ(u32, 1u);  // one active session
    EXPECT_TRUE(in.GetU64(&u64).ok());  // session id
    EXPECT_TRUE(in.GetU64(&u64).ok());  // knob dimension
    c.head = payload.substr(0, at());
    EXPECT_TRUE(in.GetI64(&c.iteration).ok());
    const size_t middle_at = at();
    bool flag = false;
    std::string text;
    Vector vector;
    SlaConstraints sla;
    Observation observation;
    EXPECT_TRUE(in.GetU64(&u64).ok());  // repository snapshot
    EXPECT_TRUE(in.GetBool(&flag).ok());
    EXPECT_TRUE(in.GetString(&text).ok());
    EXPECT_TRUE(in.GetVector(&vector).ok());
    EXPECT_TRUE(ReadSlaConstraints(&in, &sla).ok());
    EXPECT_TRUE(in.GetVector(&vector).ok());
    EXPECT_TRUE(ReadObservation(&in, &observation).ok());
    c.middle = payload.substr(middle_at, at() - middle_at);
    EXPECT_TRUE(in.GetCount(&u32, 16).ok());
    c.log.resize(u32);
    for (EventRecord& record : c.log) {
      EXPECT_TRUE(ReadEventRecord(&in, &record).ok());
    }
    EXPECT_TRUE(in.ExpectEnd().ok());
    return c;
  }

  std::string Encode() const {
    ByteWriter out;
    out.PutBytes(head);
    out.PutI64(iteration);
    out.PutBytes(middle);
    out.PutU32(static_cast<uint32_t>(log.size()));
    for (const EventRecord& record : log) WriteEventRecord(&out, record);
    return out.Take();
  }
};

/// Runs three reported rounds and a speculative batch of two (so the
/// session is at iteration 5 with launches 4 and 5 outstanding) and
/// returns the checkpoint's payload.
std::string HaltedServerPayload(const WorkloadCharacterizer& characterizer) {
  DbInstanceSimulator sim = CaseStudySimulator(107);
  ResTuneClient client(&sim, &characterizer);
  ResTuneServer server;
  const auto session = server.StartSession(*client.PrepareSubmission());
  EXPECT_TRUE(session.ok());
  for (int i = 0; i < 3; ++i) {
    const auto rec = server.Recommend(*session);
    EXPECT_TRUE(rec.ok());
    EXPECT_TRUE(
        server.ReportEvaluation(*client.EvaluateRecommendation(*rec)).ok());
  }
  EXPECT_TRUE(server.RecommendBatch(*session, 2).ok());
  std::stringstream stream;
  EXPECT_TRUE(server.SaveCheckpoint(&stream).ok());
  return ReadSealed(FileKind::kServerCheckpoint, &stream).value();
}

/// Loads an edited payload into a fresh server.
Status LoadEdited(const EditableServerCheckpoint& edited) {
  std::stringstream sealed;
  EXPECT_TRUE(
      WriteSealed(FileKind::kServerCheckpoint, edited.Encode(), &sealed).ok());
  ResTuneServer restored;
  return restored.LoadCheckpoint(&sealed);
}

TEST_F(ServerFaultTest, RestoreRejectsIterationThatDisagreesWithLog) {
  EditableServerCheckpoint checkpoint =
      EditableServerCheckpoint::Decode(HaltedServerPayload(*characterizer_));
  ASSERT_EQ(checkpoint.iteration, 5);
  ASSERT_TRUE(LoadEdited(checkpoint).ok());
  // An iteration one below the launch count would make Recommend return
  // launch 4 while ReportEvaluation rejects launch 5 as from the future:
  // the session would be wedged for good.
  checkpoint.iteration = 4;
  EXPECT_EQ(LoadEdited(checkpoint).code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServerFaultTest, RestoreRejectsDuplicateLaunchSeq) {
  EditableServerCheckpoint checkpoint =
      EditableServerCheckpoint::Decode(HaltedServerPayload(*characterizer_));
  // Renumber the last launch (still outstanding) to the seq of the one
  // before it: a log where one iteration was issued twice and one
  // recommendation silently vanished.
  auto launch = std::find_if(
      checkpoint.log.begin(), checkpoint.log.end(), [](const EventRecord& r) {
        return r.kind == EventKind::kLaunch && r.seq == 5;
      });
  ASSERT_NE(launch, checkpoint.log.end());
  launch->seq = 4;
  EXPECT_EQ(LoadEdited(checkpoint).code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- NaN/Inf ingestion guards

TEST(NanGuardTest, GpModelRejectsNonFiniteData) {
  GpModel gp(2);
  Matrix x(3, 2);
  Vector y = {1.0, 2.0, 3.0};
  for (size_t i = 0; i < 3; ++i) {
    x(i, 0) = 0.1 * static_cast<double>(i);
    x(i, 1) = 0.2 * static_cast<double>(i);
  }
  Vector bad_y = y;
  bad_y[1] = kNan;
  EXPECT_EQ(gp.Fit(x, bad_y).code(), StatusCode::kInvalidArgument);
  Matrix bad_x = x;
  bad_x(2, 1) = kInf;
  EXPECT_EQ(gp.Fit(bad_x, y).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_EQ(gp.Update({0.5, kNan}, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(gp.Update({0.5, 0.5}, kNan).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(gp.num_observations(), 3u);  // rejected updates left no trace
  EXPECT_TRUE(std::isfinite(gp.Predict({0.4, 0.4}).mean));
}

TEST(NanGuardTest, MultiOutputGpRejectsNonFiniteObservations) {
  std::vector<Observation> observations;
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    Observation obs;
    obs.theta = {rng.Uniform(), rng.Uniform()};
    obs.res = 1.0 + obs.theta[0];
    obs.tps = 100.0 * obs.theta[1];
    obs.lat = 0.5;
    observations.push_back(obs);
  }
  std::vector<Observation> poisoned = observations;
  poisoned[2].lat = kNan;
  MultiOutputGp gp(2);
  EXPECT_EQ(gp.Fit(poisoned).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(gp.fitted());

  ASSERT_TRUE(gp.Fit(observations).ok());
  Observation bad = observations[0];
  bad.tps = kInf;
  EXPECT_EQ(gp.Update(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gp.num_observations(), 6u);
}

TEST(NanGuardTest, StandardizerSkipsNonFiniteValues) {
  std::vector<Observation> observations(4);
  for (int i = 0; i < 4; ++i) {
    observations[i].res = 2.0;
    observations[i].tps = 100.0 + 10.0 * i;
    observations[i].lat = kNan;  // a metric with no finite values at all
  }
  observations[3].tps = kInf;  // one corrupt sample in an otherwise-fine metric
  const MetricStandardizer standardizer =
      MetricStandardizer::FromObservations(observations);
  EXPECT_DOUBLE_EQ(standardizer.mean(MetricKind::kTps), 110.0);  // of 100..120
  EXPECT_DOUBLE_EQ(standardizer.mean(MetricKind::kLat), 0.0);
  EXPECT_DOUBLE_EQ(standardizer.stddev(MetricKind::kLat), 1.0);
  EXPECT_TRUE(std::isfinite(standardizer.Standardize(MetricKind::kTps, 95.0)));
}

TEST(NanGuardTest, MetaLearnerDropsIncompatibleBaseLearnersAndRejectsNan) {
  Logger::SetThreshold(LogLevel::kError);
  // A 2-dim base-learner offered to a 3-dim meta-learner must be dropped,
  // not crash the ensemble.
  TuningTask task;
  task.name = "wrong-dim";
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    Observation obs;
    obs.theta = {rng.Uniform(), rng.Uniform()};
    obs.res = obs.theta[0];
    obs.tps = 10.0 + obs.theta[1];
    obs.lat = 1.0;
    task.observations.push_back(obs);
  }
  auto learner = BaseLearner::Train(task);
  ASSERT_TRUE(learner.ok());
  std::vector<BaseLearner> learners;
  learners.push_back(std::move(learner).value());
  MetaLearner meta(3, std::move(learners), {});
  EXPECT_EQ(meta.num_base_learners(), 0u);

  EXPECT_EQ(
      meta.AddObservation(Observation{{0.1, 0.2, 0.3}, kNan, 5.0, 1.0, {}})
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(meta.num_observations(), 0u);
}

TEST(NanGuardTest, MetaLearnerFailuresPenalizeConstraintsOnly) {
  MetaLearner meta(2, {}, {});
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    Observation obs;
    obs.theta = {0.3 * rng.Uniform(), 0.3 * rng.Uniform()};
    obs.res = 1.0 + obs.theta[0];
    obs.tps = 900.0 + 50.0 * obs.theta[1];
    obs.lat = 0.01;
    ASSERT_TRUE(meta.AddObservation(obs).ok());
  }
  const Vector fatal = {0.95, 0.95};
  const double tps_before = meta.PredictMetric(MetricKind::kTps, fatal).mean;
  const double res_before = meta.PredictMetric(MetricKind::kRes, fatal).mean;
  ASSERT_TRUE(meta.AddFailure(fatal, 0.0, 0.1).ok());
  EXPECT_EQ(meta.num_failures(), 1u);
  EXPECT_EQ(meta.num_observations(), 8u);  // never counted as a measurement
  const double tps_after = meta.PredictMetric(MetricKind::kTps, fatal).mean;
  const double res_after = meta.PredictMetric(MetricKind::kRes, fatal).mean;
  // The crash point drags the throughput surrogate down...
  EXPECT_LT(tps_after, tps_before);
  // ...but leaves the resource objective untouched (no fake cheap points).
  EXPECT_EQ(res_after, res_before);
  EXPECT_EQ(meta.AddFailure({kNan, 0.5}, 0.0, 1.0).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace restune
