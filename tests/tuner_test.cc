#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/fnv.h"
#include "tuner/cbo_advisor.h"
#include "tuner/cdbtune_advisor.h"
#include "tuner/grid_advisor.h"
#include "tuner/harness.h"
#include "tuner/ottertune_advisor.h"
#include "tuner/restune_advisor.h"
#include "tuner/event_session.h"
#include "tuner/suggestion_step.h"

namespace restune {
namespace {

ExperimentConfig SmallConfig(int iterations = 25) {
  ExperimentConfig config;
  config.iterations = iterations;
  config.seed = 5;
  return config;
}

DbInstanceSimulator CaseStudySimulator(uint64_t seed = 5) {
  SimulatorOptions options;
  options.seed = seed;
  return DbInstanceSimulator(CaseStudyKnobSpace(),
                             HardwareInstance('A').value(),
                             MakeWorkload(WorkloadKind::kTwitter).value(),
                             options);
}

// ----------------------------------------------------------- grid advisor

TEST(GridSearchAdvisorTest, EnumeratesFullGrid) {
  GridSearchAdvisor advisor(2, 3);
  ASSERT_TRUE(advisor.Begin({}, {}).ok());
  EXPECT_EQ(advisor.total_points(), 9u);
  std::set<std::pair<double, double>> seen;
  for (int i = 0; i < 9; ++i) {
    const auto theta = advisor.SuggestNext();
    ASSERT_TRUE(theta.ok());
    seen.insert({(*theta)[0], (*theta)[1]});
    ASSERT_TRUE(advisor.Observe({}).ok());
  }
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_TRUE(advisor.exhausted());
  EXPECT_EQ(advisor.SuggestNext().status().code(), StatusCode::kOutOfRange);
}

TEST(GridSearchAdvisorTest, GridCoversEndpoints) {
  GridSearchAdvisor advisor(1, 5);
  ASSERT_TRUE(advisor.Begin({}, {}).ok());
  std::set<double> values;
  for (int i = 0; i < 5; ++i) values.insert((*advisor.SuggestNext())[0]);
  EXPECT_TRUE(values.count(0.0));
  EXPECT_TRUE(values.count(1.0));
}

// -------------------------------------------------------- suggestion step

TEST(SuggestionStepTest, PendingPeakPushesTheSuggestionARadiusAway) {
  // Two peaks: the higher one at `peak`, a lower one far from it. A pending
  // evaluation on the higher peak damps it enough that the step proposes
  // the other, at least the penalty radius away.
  const Vector peak = {0.3, 0.3};
  const BatchAcquisitionFn acquisition =
      [&](const std::vector<Matrix>& blocks) {
        std::vector<std::vector<double>> values;
        for (const Matrix& thetas : blocks) {
          std::vector<double>& block_values = values.emplace_back();
          for (size_t r = 0; r < thetas.rows(); ++r) {
            const Vector x = thetas.Row(r);
            block_values.push_back(
                std::max(std::exp(-50.0 * SquaredDistance(x, peak)),
                         0.8 * std::exp(-50.0 * SquaredDistance(
                                                    x, {0.75, 0.75}))));
          }
        }
        return values;
      };
  SuggestionStep alone(2, 6, QuarantineOptions{}, AcqOptimizerOptions{});
  EXPECT_LT(std::sqrt(SquaredDistance(alone.Maximize({}, acquisition), peak)),
            0.05);
  SuggestionStep step(2, 6, QuarantineOptions{}, AcqOptimizerOptions{});
  SuggestionRequest request;
  request.pending = {peak};
  const Vector theta = step.Maximize(request, acquisition);
  EXPECT_GE(std::sqrt(SquaredDistance(theta, peak)),
            SuggestionStep::kPendingPenaltyRadius);
}

TEST(SuggestionStepTest, DesignPointsAreClampedAndQuarantinedOnesSkipped) {
  QuarantineOptions quarantine;
  quarantine.radius = 0.1;
  SuggestionStep step(2, 3, quarantine, AcqOptimizerOptions{});
  step.QueueDesign(3);
  SuggestionRequest request;
  request.trust_center = {0.5, 0.5};
  request.trust_radius = 0.1;
  const std::optional<Vector> first = step.NextDesignPoint(request);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, request.Clamp(*first));  // inside the trust box
  // Only fatal kinds quarantine; once the whole trust box is quarantined,
  // the clamped design points left are all skipped.
  step.ObserveFailure(request.trust_center, FaultKind::kTransient);
  EXPECT_TRUE(step.quarantine().empty());
  step.ObserveFailure(request.trust_center, FaultKind::kCrash);
  ASSERT_EQ(step.quarantine().size(), 1u);
  EXPECT_FALSE(step.NextDesignPoint(request).has_value());
}

// ------------------------------------------------------------ CBO advisor

TEST(CboAdvisorTest, LifecycleAndLhsBootstrap) {
  CboAdvisorOptions options;
  options.initial_lhs_samples = 3;
  CboAdvisor advisor("cbo", 3, options);
  EXPECT_FALSE(advisor.SuggestNext().ok());  // Begin not called

  DbInstanceSimulator sim = CaseStudySimulator();
  const Observation def = sim.EvaluateDefault().value();
  const SlaConstraints sla = DbInstanceSimulator::ConstraintsFromDefault(def);
  ASSERT_TRUE(advisor.Begin(def, sla).ok());
  // First 3 suggestions come from LHS; all in [0,1]^3.
  for (int i = 0; i < 5; ++i) {
    const auto theta = advisor.SuggestNext();
    ASSERT_TRUE(theta.ok());
    for (double v : *theta) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    ASSERT_TRUE(advisor.Observe(sim.Evaluate(*theta).value()).ok());
  }
  EXPECT_EQ(advisor.surrogate().num_observations(), 6u);  // default + 5
}

TEST(CboAdvisorTest, CrashFeedsTheConstraintModelsOnly) {
  CboAdvisor advisor("cbo", 3);
  DbInstanceSimulator sim = CaseStudySimulator();
  const Observation def = sim.EvaluateDefault().value();
  ASSERT_TRUE(
      advisor.Begin(def, DbInstanceSimulator::ConstraintsFromDefault(def))
          .ok());
  const MultiOutputGp& gp = advisor.surrogate();
  const size_t res = gp.model(MetricKind::kRes).num_observations();
  const size_t tps = gp.model(MetricKind::kTps).num_observations();
  const size_t lat = gp.model(MetricKind::kLat).num_observations();

  EvaluationFault crash;
  crash.kind = FaultKind::kCrash;
  ASSERT_TRUE(advisor.ObserveFailure({0.9, 0.1, 0.5}, crash).ok());
  // The crash enters as a hard SLA violation in the constraint models; the
  // resource model never sees a fabricated value.
  EXPECT_EQ(gp.model(MetricKind::kTps).num_observations(), tps + 1);
  EXPECT_EQ(gp.model(MetricKind::kLat).num_observations(), lat + 1);
  EXPECT_EQ(gp.model(MetricKind::kRes).num_observations(), res);
}

// -------------------------------------------------------- session running

TEST(TuningSessionTest, TracksBestFeasible) {
  DbInstanceSimulator sim = CaseStudySimulator();
  CboAdvisorOptions options;
  options.initial_lhs_samples = 5;
  CboAdvisor advisor("cbo", 3, options);
  EventSessionOptions session_options = SequentialSessionOptions();
  session_options.max_iterations = 20;
  EventTuningSession session(&sim, &advisor, session_options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->history.size(), 20u);
  // Best feasible is monotone non-increasing.
  double prev = result->default_observation.res;
  for (const IterationRecord& rec : result->history) {
    EXPECT_LE(rec.best_feasible_res, prev + 1e-9);
    prev = rec.best_feasible_res;
  }
  // Best theta re-evaluates (noise-free) to a feasible point.
  const PerfMetrics best = sim.EvaluateExact(result->best_theta).value();
  EXPECT_GE(best.tps, result->sla.min_tps * 0.93);
}

TEST(TuningSessionTest, StopsWhenAdvisorIsExhausted) {
  DbInstanceSimulator sim = CaseStudySimulator();
  GridSearchAdvisor advisor(3, 2);  // 8 points, then OutOfRange
  EventSessionOptions options = SequentialSessionOptions();
  options.max_iterations = 100;
  EventTuningSession session(&sim, &advisor, options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->history.size(), 8u);  // stopped at grid exhaustion
}

TEST(TuningSessionTest, IterationsToBestWithinTolerance) {
  SessionResult result;
  result.best_feasible_res = 10.0;
  for (int i = 1; i <= 5; ++i) {
    IterationRecord rec;
    rec.iteration = i;
    rec.best_feasible_res = 30.0 - 4.0 * i;  // 26, 22, 18, 14, 10
    result.history.push_back(rec);
  }
  EXPECT_EQ(result.IterationsToBest(0.0), 5);
  EXPECT_EQ(result.IterationsToBest(0.5), 4);  // 14 <= 10*1.5
}

TEST(TuningSessionTest, WritesCsvHistory) {
  DbInstanceSimulator sim = CaseStudySimulator(33);
  GridSearchAdvisor advisor(3, 2);
  EventSessionOptions options = SequentialSessionOptions();
  options.max_iterations = 8;
  EventTuningSession session(&sim, &advisor, options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok());
  const std::string path = testing::TempDir() + "/session.csv";
  ASSERT_TRUE(result->WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1 + 1 + 8);  // header + default + 8 iterations
  std::remove(path.c_str());
}

// --------------------------------------------------------------- advisors

TEST(ResTuneAdvisorTest, RunsWithoutBaseLearners) {
  DbInstanceSimulator sim = CaseStudySimulator();
  ResTuneAdvisorOptions options;
  options.meta.static_weight_iterations = 3;
  options.workload_characterization_init = false;  // LHS init
  ResTuneAdvisor advisor(3, sim.knob_space().DefaultTheta(), {}, {}, options);
  EventSessionOptions session_options = SequentialSessionOptions();
  session_options.max_iterations = 12;
  EventTuningSession session(&sim, &advisor, session_options);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->best_feasible_res, result->default_observation.res);
}

TEST(OtterTuneAdvisorTest, MapsToTaskWithInternals) {
  // Build two tiny repository tasks with internal metrics.
  DbInstanceSimulator sim = CaseStudySimulator(11);
  std::vector<TuningTask> tasks(2);
  Rng rng(1);
  for (int t = 0; t < 2; ++t) {
    tasks[t].name = t == 0 ? "twitter-ish" : "other";
    for (int i = 0; i < 8; ++i) {
      Vector theta = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      Observation obs = sim.Evaluate(theta).value();
      if (t == 1) {
        // Perturb the second task's internals to be distant.
        for (double& v : obs.internals) v *= 40.0;
        obs.res *= 2.0;
      }
      tasks[t].observations.push_back(std::move(obs));
    }
  }
  OtterTuneAdvisorOptions options;
  options.initial_lhs_samples = 2;
  options.remap_period = 1;
  OtterTuneAdvisor advisor(3, tasks, options);
  const Observation def = sim.EvaluateDefault().value();
  ASSERT_TRUE(
      advisor.Begin(def, DbInstanceSimulator::ConstraintsFromDefault(def))
          .ok());
  // The target's internals match task 0's scale, so mapping picks it.
  EXPECT_EQ(advisor.mapped_task(), 0);
  const auto theta = advisor.SuggestNext();
  ASSERT_TRUE(theta.ok());
}

TEST(CdbTuneAdvisorTest, RewardShapingMatchesPaperRules) {
  CdbTuneAdvisor advisor(3);
  DbInstanceSimulator sim = CaseStudySimulator(13);
  const Observation def = sim.EvaluateDefault().value();
  const SlaConstraints sla = DbInstanceSimulator::ConstraintsFromDefault(def);
  ASSERT_TRUE(advisor.Begin(def, sla).ok());

  ASSERT_TRUE(advisor.SuggestNext().ok());
  // Case 1: resource improves and SLA holds -> positive reward.
  Observation better = def;
  better.res = def.res * 0.5;
  ASSERT_TRUE(advisor.Observe(better).ok());
  EXPECT_GT(advisor.last_reward(), 0.0);

  // Case 2: resource improves but SLA violated -> zero.
  ASSERT_TRUE(advisor.SuggestNext().ok());
  Observation cheat = def;
  cheat.res = def.res * 0.3;
  cheat.tps = sla.min_tps * 0.5;
  ASSERT_TRUE(advisor.Observe(cheat).ok());
  EXPECT_DOUBLE_EQ(advisor.last_reward(), 0.0);

  // Case 3: resource regresses but SLA holds -> zero.
  ASSERT_TRUE(advisor.SuggestNext().ok());
  Observation worse = def;
  worse.res = def.res * 1.5;
  ASSERT_TRUE(advisor.Observe(worse).ok());
  EXPECT_DOUBLE_EQ(advisor.last_reward(), 0.0);

  // Case 4: resource regresses and SLA violated -> negative.
  ASSERT_TRUE(advisor.SuggestNext().ok());
  Observation bad = def;
  bad.res = def.res * 1.5;
  bad.tps = sla.min_tps * 0.5;
  ASSERT_TRUE(advisor.Observe(bad).ok());
  EXPECT_LT(advisor.last_reward(), 0.0);
}

TEST(CdbTuneAdvisorTest, RequiresInternals) {
  CdbTuneAdvisor advisor(3);
  Observation no_internals;
  no_internals.theta = {0.5, 0.5, 0.5};
  EXPECT_FALSE(advisor.Begin(no_internals, {}).ok());
}

// ---------------------------------------------------------------- harness

TEST(HarnessTest, MethodNames) {
  EXPECT_STREQ(MethodName(MethodKind::kResTune), "ResTune");
  EXPECT_STREQ(MethodName(MethodKind::kOtterTune), "OtterTune-w-Con");
  EXPECT_STREQ(MethodName(MethodKind::kGridSearch), "GridSearch");
}

TEST(HarnessTest, RepositoryWorkloadsCountsMatchPaper) {
  // 17 workloads x 2 instances = 34 tasks (paper Section 7).
  EXPECT_EQ(RepositoryWorkloads().size(), 17u);
}

TEST(HarnessTest, CollectHistoryTaskShape) {
  const WorkloadCharacterizer characterizer = TrainDefaultCharacterizer();
  const ExperimentConfig config = SmallConfig();
  const TuningTask task = CollectHistoryTask(
      CaseStudyKnobSpace(), HardwareInstance('B').value(),
      MakeWorkload(WorkloadKind::kTwitter).value(), characterizer, config, 12);
  EXPECT_EQ(task.observations.size(), 12u);
  EXPECT_EQ(task.hardware, "instance-B");
  EXPECT_FALSE(task.meta_feature.empty());
  // The default configuration is part of every history.
  bool has_default = false;
  const Vector def = CaseStudyKnobSpace().DefaultTheta();
  for (const Observation& obs : task.observations) {
    if (obs.theta == def) has_default = true;
  }
  EXPECT_TRUE(has_default);
}

// Pins the default characterizer and the paper repository built with it:
// one FNV-1a hash of the five standard workloads' meta-features and the
// forest's out-of-bag accuracy, and one of every repository task's names,
// meta-feature, θ, metrics and internals. Both are built on the shared
// pool, so the same bits are expected at any pool size. Recorded from a
// GCC build, like the repository's other bit-exact pins.
TEST(HarnessPinTest, DefaultCharacterizerKeepsItsBits) {
  const WorkloadCharacterizer characterizer = TrainDefaultCharacterizer();
  Fnv1a hash;
  for (const WorkloadProfile& w : StandardWorkloads()) {
    for (double v : ComputeMetaFeature(characterizer, w)) hash.AddDouble(v);
  }
  hash.AddDouble(characterizer.oob_accuracy());
  EXPECT_GT(characterizer.oob_accuracy(), 0.0);
#if defined(__GNUC__) && !defined(__clang__)
  EXPECT_EQ(hash.hash(), 0x5717d531bde634adull) << "hash 0x" << hash.Hex();
#endif
}

TEST(HarnessPinTest, PaperRepositoryKeepsItsBits) {
  const DataRepository repo = BuildPaperRepository(
      CpuKnobSpace(), TrainDefaultCharacterizer(), ExperimentConfig{});
  ASSERT_EQ(repo.num_tasks(), 34u);
  Fnv1a hash;
  for (const TuningTask& task : repo.tasks()) {
    hash.AddString(task.name);
    hash.AddString(task.hardware);
    hash.AddString(task.workload);
    for (double v : task.meta_feature) hash.AddDouble(v);
    hash.AddU64(task.observations.size());
    for (const Observation& obs : task.observations) {
      for (double v : obs.theta) hash.AddDouble(v);
      hash.AddDouble(obs.res);
      hash.AddDouble(obs.tps);
      hash.AddDouble(obs.lat);
      for (double v : obs.internals) hash.AddDouble(v);
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
  EXPECT_EQ(hash.hash(), 0x1460005cc445b1eeull) << "hash 0x" << hash.Hex();
#endif
}

TEST(HarnessTest, RunMethodAllKindsSmoke) {
  const ExperimentConfig config = SmallConfig(8);
  for (MethodKind method :
       {MethodKind::kResTuneNoMl, MethodKind::kITuned, MethodKind::kCdbTune,
        MethodKind::kGridSearch}) {
    DbInstanceSimulator sim = CaseStudySimulator(21);
    const auto result = RunMethod(method, &sim, {}, config);
    ASSERT_TRUE(result.ok()) << MethodName(method) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->history.size(), 8u) << MethodName(method);
  }
}


TEST(HarnessTest, AdaptRequestRateCapsSaturatedInstances) {
  const WorkloadProfile sysbench =
      MakeWorkload(WorkloadKind::kSysbench).value();
  // Instance B (8 cores) cannot absorb 21K txn/s of SYSBENCH: the adapted
  // rate must drop below the Table 2 value.
  const WorkloadProfile on_b =
      AdaptRequestRate(sysbench, HardwareInstance('B').value());
  EXPECT_LT(on_b.request_rate, sysbench.request_rate);
  EXPECT_GT(on_b.request_rate, 0.0);
  // The adapted rate is feasible: the default config serves it.
  SimulatorOptions options;
  options.noise_std = 0.0;
  DbInstanceSimulator sim(CpuKnobSpace(), HardwareInstance('B').value(),
                          on_b, options);
  const PerfMetrics m =
      sim.EvaluateExact(sim.knob_space().DefaultTheta()).value();
  EXPECT_NEAR(m.tps, on_b.request_rate, on_b.request_rate * 0.02);

  // Open-loop workloads pass through unchanged.
  WorkloadProfile open = sysbench;
  open.request_rate = 0.0;
  EXPECT_DOUBLE_EQ(
      AdaptRequestRate(open, HardwareInstance('B').value()).request_rate,
      0.0);
}

TEST(HarnessTest, BenchIterationsEnvOverride) {
  unsetenv("RESTUNE_BENCH_ITERS");
  EXPECT_EQ(BenchIterations(100), 100);
  setenv("RESTUNE_BENCH_ITERS", "10", 1);
  EXPECT_EQ(BenchIterations(100), 10);
  setenv("RESTUNE_BENCH_ITERS", "500", 1);
  EXPECT_EQ(BenchIterations(100), 100);  // caps at the default
  unsetenv("RESTUNE_BENCH_ITERS");
}

}  // namespace
}  // namespace restune
