#ifndef RESTUNE_TUNER_HARNESS_H_
#define RESTUNE_TUNER_HARNESS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dbsim/simulator.h"
#include "meta/data_repository.h"
#include "meta/meta_feature.h"
#include "sqlgen/generator.h"
#include "tuner/event_session.h"

namespace restune {

/// The tuning methods compared throughout the paper's evaluation.
enum class MethodKind {
  kResTune,
  kResTuneNoMl,        // ResTune-w/o-ML: constrained BO, no repository
  kResTuneNoWorkload,  // ablation: LHS init instead of characterization
  kOtterTune,          // OtterTune-w-Con
  kCdbTune,            // CDBTune-w-Con
  kITuned,             // unconstrained EI
  kGridSearch,
};

const char* MethodName(MethodKind method);

/// Shared knobs of one experiment run.
struct ExperimentConfig {
  ResourceKind resource = ResourceKind::kCpu;
  int iterations = 200;
  /// The paper accepts 5% measurement deviation when evaluating the
  /// performance metrics (Section 7, "Setting").
  double sla_tolerance = 0.05;
  double noise_std = 0.01;
  double buffer_pool_fix_gb = 0.0;
  uint64_t seed = 1;
  /// Fault injection for the target simulator (off by default). Repository
  /// collection always runs fault-free — history tasks model the paper's
  /// curated meta-data, not a flaky production trace.
  FaultInjectionOptions faults;
  /// Session-level fault tolerance (retry policy, failure-aware learning,
  /// checkpointing).
  SessionFaultOptions fault_tolerance;
};

/// Trains the workload characterizer on labeled queries sampled from every
/// workload's SQL generator — the classifier every experiment shares.
WorkloadCharacterizer TrainDefaultCharacterizer(uint64_t seed = 7);

/// Meta-feature of a workload: averaged predicted cost-class distribution
/// over `num_queries` sampled queries (paper Section 6.2).
Vector ComputeMetaFeature(const WorkloadCharacterizer& characterizer,
                          const WorkloadProfile& workload,
                          size_t num_queries = 200, uint64_t seed = 11);

/// Collects one historical task's meta-data: LHS observations of
/// (workload, hardware) under `space`, plus its meta-feature.
TuningTask CollectHistoryTask(const KnobSpace& space,
                              const HardwareSpec& hardware,
                              const WorkloadProfile& workload,
                              const WorkloadCharacterizer& characterizer,
                              const ExperimentConfig& config,
                              size_t num_observations);

/// The 17 distinct workloads behind the paper's 34-task repository
/// (Section 7, "Data Repository").
std::vector<WorkloadProfile> RepositoryWorkloads();

/// Builds the paper's repository: `RepositoryWorkloads()` × instances A and
/// B (34 tasks) observed under `space` via LHS.
DataRepository BuildPaperRepository(const KnobSpace& space,
                                    const WorkloadCharacterizer& characterizer,
                                    const ExperimentConfig& config,
                                    size_t observations_per_task = 80);

/// Materials a method needs besides the simulator: base-learners for
/// ResTune, raw tasks for OtterTune's mapping, and the target meta-feature.
struct MethodInputs {
  std::vector<BaseLearner> base_learners;
  std::vector<TuningTask> repository_tasks;
  Vector target_meta_feature;
};

/// Runs one tuning method against a simulator for `config.iterations`
/// evaluations on the sequential loop (`SequentialSessionOptions`) and
/// returns the session trace.
Result<SessionResult> RunMethod(MethodKind method,
                                DbInstanceSimulator* simulator,
                                const MethodInputs& inputs,
                                const ExperimentConfig& config);

/// Adjusts a workload's client request rate to what the given hardware can
/// actually absorb under the default configuration (85% of default
/// capacity, or the original rate if lower). This mirrors the paper's
/// methodology — "the request rates ... are set for benchmark workloads by
/// observing throughput under DBA's default configuration" — and prevents
/// small instances from being saturated into infeasibility.
WorkloadProfile AdaptRequestRate(const WorkloadProfile& workload,
                                 const HardwareSpec& hardware,
                                 double buffer_pool_fix_gb = 0.0);

/// Convenience: builds a simulator for (space, instance label, workload)
/// under `config`, with the request rate adapted to the instance.
Result<DbInstanceSimulator> MakeSimulator(const KnobSpace& space,
                                          char instance_label,
                                          const WorkloadProfile& workload,
                                          const ExperimentConfig& config);

/// Reads an iteration-count scale factor from the RESTUNE_BENCH_ITERS
/// environment variable (absolute iteration override for quick runs);
/// returns `default_iters` when unset.
int BenchIterations(int default_iters);

}  // namespace restune

#endif  // RESTUNE_TUNER_HARNESS_H_
