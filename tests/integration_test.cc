#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "tuner/harness.h"

namespace restune {
namespace {

/// End-to-end scenarios exercising the full stack: simulator + workload
/// characterization + repository + advisors. These are deliberately small
/// (few iterations, 3-knob case-study space) so the whole file runs in a
/// few seconds.
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Logger::SetThreshold(LogLevel::kWarning);
    characterizer_ =
        std::make_unique<WorkloadCharacterizer>(TrainDefaultCharacterizer());
  }
  static void TearDownTestSuite() {
    characterizer_.reset();
  }

  static std::unique_ptr<WorkloadCharacterizer> characterizer_;

  ExperimentConfig Config(int iters, uint64_t seed = 3) const {
    ExperimentConfig config;
    config.iterations = iters;
    config.seed = seed;
    return config;
  }

  /// Repository over the case-study space: Twitter variations on A and B.
  std::vector<BaseLearner> CaseStudyLearners(const ExperimentConfig& config) {
    std::vector<BaseLearner> learners;
    for (char label : {'A', 'B'}) {
      const HardwareSpec hw = HardwareInstance(label).value();
      for (int v = 1; v <= 3; ++v) {
        const TuningTask task =
            CollectHistoryTask(CaseStudyKnobSpace(), hw,
                               TwitterVariation(v).value(), *characterizer_,
                               config, 40);
        auto learner = BaseLearner::Train(task);
        if (learner.ok()) learners.push_back(std::move(learner).value());
      }
    }
    return learners;
  }
};

std::unique_ptr<WorkloadCharacterizer> IntegrationTest::characterizer_;

TEST_F(IntegrationTest, ResTuneReducesCpuAndKeepsSla) {
  const ExperimentConfig config = Config(30);
  auto sim = MakeSimulator(CaseStudyKnobSpace(), 'A',
                           MakeWorkload(WorkloadKind::kTwitter).value(),
                           config)
                 .value();
  MethodInputs inputs;
  inputs.base_learners = CaseStudyLearners(config);
  inputs.target_meta_feature = ComputeMetaFeature(
      *characterizer_, MakeWorkload(WorkloadKind::kTwitter).value());
  const auto result = RunMethod(MethodKind::kResTune, &sim, inputs, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Paper headline: large CPU reduction with the SLA held.
  EXPECT_LT(result->best_feasible_res,
            result->default_observation.res * 0.5);
  const PerfMetrics best = sim.EvaluateExact(result->best_theta).value();
  EXPECT_GE(best.tps, result->sla.min_tps * 0.95);
  EXPECT_LE(best.latency_p99_ms, result->sla.max_lat * 1.05);
}

TEST_F(IntegrationTest, MetaLearningAcceleratesOverScratch) {
  // ResTune with a relevant repository should reach a good configuration
  // in fewer iterations than constrained BO from scratch (Fig. 3).
  const ExperimentConfig config = Config(30, 9);
  const WorkloadProfile target = MakeWorkload(WorkloadKind::kTwitter).value();

  MethodInputs inputs;
  inputs.base_learners = CaseStudyLearners(config);
  inputs.target_meta_feature = ComputeMetaFeature(*characterizer_, target);

  auto sim_meta =
      MakeSimulator(CaseStudyKnobSpace(), 'A', target, config).value();
  const auto with_meta =
      RunMethod(MethodKind::kResTune, &sim_meta, inputs, config);
  ASSERT_TRUE(with_meta.ok());

  auto sim_scratch =
      MakeSimulator(CaseStudyKnobSpace(), 'A', target, config).value();
  const auto scratch =
      RunMethod(MethodKind::kResTuneNoMl, &sim_scratch, {}, config);
  ASSERT_TRUE(scratch.ok());

  // Compare the best feasible CPU reached within the first 12 iterations.
  auto best_at = [](const SessionResult& r, int iter) {
    double best = r.default_observation.res;
    for (const IterationRecord& rec : r.history) {
      if (rec.iteration > iter) break;
      best = rec.best_feasible_res;
    }
    return best;
  };
  EXPECT_LT(best_at(*with_meta, 12), best_at(*scratch, 12) + 1e-9);
}

TEST_F(IntegrationTest, ITunedViolatesSlaMoreOften) {
  // iTuned chases minimum resource without constraints and so spends more
  // evaluations on infeasible configurations (Section 7.1's explanation).
  // Aggregated over several seeds to keep the comparison robust.
  const WorkloadProfile target = MakeWorkload(WorkloadKind::kTwitter).value();
  // Count infeasible suggestions after the shared 10-iteration LHS phase.
  auto infeasible_after_init = [](const SessionResult& r) {
    int count = 0;
    for (const IterationRecord& rec : r.history) {
      if (rec.iteration > 10 && !rec.feasible) ++count;
    }
    return count;
  };
  int ei_total = 0, cei_total = 0;
  for (uint64_t seed : {11u, 23u, 37u}) {
    const ExperimentConfig config = Config(25, seed);
    auto sim_cei =
        MakeSimulator(CaseStudyKnobSpace(), 'A', target, config).value();
    const auto cei =
        RunMethod(MethodKind::kResTuneNoMl, &sim_cei, {}, config);
    ASSERT_TRUE(cei.ok());
    cei_total += infeasible_after_init(*cei);

    auto sim_ei =
        MakeSimulator(CaseStudyKnobSpace(), 'A', target, config).value();
    const auto ei = RunMethod(MethodKind::kITuned, &sim_ei, {}, config);
    ASSERT_TRUE(ei.ok());
    ei_total += infeasible_after_init(*ei);
  }
  EXPECT_GE(ei_total, cei_total);
}

TEST_F(IntegrationTest, MemoryTuningShrinksFootprint) {
  ExperimentConfig config = Config(30, 13);
  config.resource = ResourceKind::kMemory;
  const HardwareSpec hw = HardwareInstance('E').value();
  auto sim = MakeSimulator(MemoryKnobSpace(hw.ram_gb), 'E',
                           MakeWorkload(WorkloadKind::kSysbench, 30).value(),
                           config)
                 .value();
  const auto result = RunMethod(MethodKind::kResTuneNoMl, &sim, {}, config);
  ASSERT_TRUE(result.ok());
  // Section 7.5.2: total memory drops substantially under the SLA.
  EXPECT_LT(result->best_feasible_res,
            result->default_observation.res * 0.85);
}

TEST_F(IntegrationTest, IoTuningCutsIops) {
  ExperimentConfig config = Config(40, 17);
  config.resource = ResourceKind::kIoIops;
  config.buffer_pool_fix_gb = 16.0;  // paper fixes the pool for I/O runs
  auto sim = MakeSimulator(IoKnobSpace(), 'E',
                           MakeWorkload(WorkloadKind::kTpcc, 100).value(),
                           config)
                 .value();
  const auto result = RunMethod(MethodKind::kResTuneNoMl, &sim, {}, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->best_feasible_res,
            result->default_observation.res * 0.7);
}

TEST_F(IntegrationTest, RepositoryRoundTripPreservesTuningBehaviour) {
  // Persist a repository, reload it, and verify base-learners trained from
  // the reloaded tasks drive ResTune to a comparable result.
  const ExperimentConfig config = Config(15, 19);
  DataRepository repo;
  for (int v = 1; v <= 2; ++v) {
    ASSERT_TRUE(repo.AddTask(CollectHistoryTask(CaseStudyKnobSpace(),
                                                HardwareInstance('A').value(),
                                                TwitterVariation(v).value(),
                                                *characterizer_, config, 30))
                    .ok());
  }
  const std::string path = testing::TempDir() + "/integration_repo.bin";
  ASSERT_TRUE(repo.SaveToFile(path).ok());
  DataRepository loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  ASSERT_EQ(loaded.num_tasks(), repo.num_tasks());

  MethodInputs inputs;
  inputs.base_learners = loaded.TrainAllBaseLearners();
  ASSERT_EQ(inputs.base_learners.size(), 2u);
  inputs.target_meta_feature = ComputeMetaFeature(
      *characterizer_, MakeWorkload(WorkloadKind::kTwitter).value());
  auto sim = MakeSimulator(CaseStudyKnobSpace(), 'A',
                           MakeWorkload(WorkloadKind::kTwitter).value(),
                           config)
                 .value();
  const auto result = RunMethod(MethodKind::kResTune, &sim, inputs, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->best_feasible_res, result->default_observation.res);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace restune
