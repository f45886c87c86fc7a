#include "tuner/harness.h"

#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>

#include "bo/lhs.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "tuner/cbo_advisor.h"
#include "tuner/cdbtune_advisor.h"
#include "tuner/grid_advisor.h"
#include "tuner/ottertune_advisor.h"
#include "tuner/restune_advisor.h"

namespace restune {

const char* MethodName(MethodKind method) {
  switch (method) {
    case MethodKind::kResTune:
      return "ResTune";
    case MethodKind::kResTuneNoMl:
      return "ResTune-w/o-ML";
    case MethodKind::kResTuneNoWorkload:
      return "ResTune-w/o-Workload";
    case MethodKind::kOtterTune:
      return "OtterTune-w-Con";
    case MethodKind::kCdbTune:
      return "CDBTune-w-Con";
    case MethodKind::kITuned:
      return "iTuned";
    case MethodKind::kGridSearch:
      return "GridSearch";
  }
  return "?";
}

WorkloadCharacterizer TrainDefaultCharacterizer(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, double>> labeled;
  for (const WorkloadProfile& w : StandardWorkloads()) {
    WorkloadSqlGenerator gen(w);
    for (int i = 0; i < 300; ++i) {
      labeled.push_back(gen.SampleWithCost(&rng));
    }
  }
  WorkloadCharacterizer characterizer;
  const Status st = characterizer.Train(labeled);
  if (!st.ok()) {
    RESTUNE_LOG(kError) << "characterizer training failed: " << st.ToString();
  }
  return characterizer;
}

Vector ComputeMetaFeature(const WorkloadCharacterizer& characterizer,
                          const WorkloadProfile& workload, size_t num_queries,
                          uint64_t seed) {
  Rng rng(seed);
  WorkloadSqlGenerator gen(workload);
  const Result<Vector> feature =
      characterizer.MetaFeature(gen.Sample(num_queries, &rng));
  if (!feature.ok()) {
    RESTUNE_LOG(kWarning) << "meta-feature failed for " << workload.name
                          << ": " << feature.status().ToString();
    return {};
  }
  return *feature;
}

WorkloadProfile AdaptRequestRate(const WorkloadProfile& workload,
                                 const HardwareSpec& hardware,
                                 double buffer_pool_fix_gb) {
  if (workload.request_rate <= 0) return workload;
  WorkloadProfile open_loop = workload;
  open_loop.request_rate = 0;  // let the engine report raw capacity
  EngineConfig defaults = EngineConfig::Defaults(hardware);
  if (buffer_pool_fix_gb > 0) defaults.buffer_pool_gb = buffer_pool_fix_gb;
  const PerfMetrics m = EngineModel::Evaluate(defaults, hardware, open_loop);
  WorkloadProfile adapted = workload;
  adapted.request_rate = std::min(workload.request_rate, 0.85 * m.tps);
  return adapted;
}

Result<DbInstanceSimulator> MakeSimulator(const KnobSpace& space,
                                          char instance_label,
                                          const WorkloadProfile& workload_in,
                                          const ExperimentConfig& config) {
  RESTUNE_ASSIGN_OR_RETURN(const HardwareSpec hw,
                           HardwareInstance(instance_label));
  const WorkloadProfile workload =
      AdaptRequestRate(workload_in, hw, config.buffer_pool_fix_gb);
  SimulatorOptions options;
  options.resource = config.resource;
  options.noise_std = config.noise_std;
  options.seed = config.seed * 2654435761u + static_cast<uint64_t>(
                                                 instance_label);
  options.buffer_pool_fix_gb = config.buffer_pool_fix_gb;
  options.faults = config.faults;
  // Production workloads replay 5 minutes, benchmarks 3 (paper Table 3).
  options.replay_seconds = (workload.kind == WorkloadKind::kHotel ||
                            workload.kind == WorkloadKind::kSales)
                               ? 300.0
                               : 180.0;
  return DbInstanceSimulator(space, hw, workload, options);
}

TuningTask CollectHistoryTask(const KnobSpace& space,
                              const HardwareSpec& hardware,
                              const WorkloadProfile& workload_in,
                              const WorkloadCharacterizer& characterizer,
                              const ExperimentConfig& config,
                              size_t num_observations) {
  const WorkloadProfile workload =
      AdaptRequestRate(workload_in, hardware, config.buffer_pool_fix_gb);
  TuningTask task;
  task.name = workload.name + "@" + hardware.name;
  task.hardware = hardware.name;
  task.workload = workload.name;
  task.meta_feature = ComputeMetaFeature(characterizer, workload);

  SimulatorOptions options;
  options.resource = config.resource;
  options.noise_std = config.noise_std;
  options.seed = config.seed ^ std::hash<std::string>{}(task.name);
  options.buffer_pool_fix_gb = config.buffer_pool_fix_gb;
  DbInstanceSimulator sim(space, hardware, workload, options);

  Rng rng(options.seed ^ 0xabcdef);
  std::vector<Vector> points =
      LatinHypercubeSample(num_observations - 1, space.dim(), &rng);
  points.push_back(space.DefaultTheta());
  for (const Vector& theta : points) {
    Result<Observation> obs = sim.Evaluate(theta);
    if (obs.ok()) task.observations.push_back(std::move(obs).value());
  }
  return task;
}

std::vector<WorkloadProfile> RepositoryWorkloads() {
  std::vector<WorkloadProfile> workloads = StandardWorkloads();  // 5
  for (int v = 1; v <= 5; ++v) {
    workloads.push_back(TwitterVariation(v).value());  // +5 = 10
  }
  workloads.push_back(MakeWorkload(WorkloadKind::kSysbench, 30).value());
  workloads.push_back(MakeWorkload(WorkloadKind::kSysbench, 100).value());
  workloads.push_back(MakeWorkload(WorkloadKind::kTpcc, 100).value());
  workloads.push_back(MakeTpccWithWarehouses(500));
  workloads.push_back(MakeTpccWithWarehouses(800));  // +5 = 15
  // Rate variants of the production traces.
  WorkloadProfile hotel = MakeWorkload(WorkloadKind::kHotel).value();
  hotel.request_rate *= 0.6;
  hotel.name = "Hotel-offpeak";
  workloads.push_back(hotel);
  WorkloadProfile sales = MakeWorkload(WorkloadKind::kSales).value();
  sales.request_rate *= 1.25;
  sales.name = "Sales-peak";
  workloads.push_back(sales);  // 17 total
  return workloads;
}

DataRepository BuildPaperRepository(const KnobSpace& space,
                                    const WorkloadCharacterizer& characterizer,
                                    const ExperimentConfig& config,
                                    size_t observations_per_task) {
  const std::vector<WorkloadProfile> workloads = RepositoryWorkloads();
  const HardwareSpec instances[] = {HardwareInstance('A').value(),
                                    HardwareInstance('B').value()};
  // Each task is seeded from its own name, so the tasks are collected as
  // one pool loop into their own slots and added in (instance, workload)
  // order.
  std::vector<TuningTask> tasks(std::size(instances) * workloads.size());
  ThreadPool::Shared()->ParallelFor(tasks.size(), [&](size_t i) {
    tasks[i] = CollectHistoryTask(space, instances[i / workloads.size()],
                                  workloads[i % workloads.size()],
                                  characterizer, config, observations_per_task);
  });
  DataRepository repo;
  for (TuningTask& task : tasks) {
    const Status st = repo.AddTask(std::move(task));
    if (!st.ok()) {
      RESTUNE_LOG(kWarning) << "repository task skipped: " << st.ToString();
    }
  }
  return repo;
}

namespace {

/// GP settings tuned for single-core experiment throughput.
GpOptions FastGpOptions(uint64_t seed) {
  GpOptions gp;
  gp.refit_period = 15;
  gp.hyperopt_max_iters = 20;
  gp.hyperopt_restarts = 0;
  gp.seed = seed;
  return gp;
}

AcqOptimizerOptions FastAcqOptions() {
  AcqOptimizerOptions acq;
  acq.num_candidates = 256;
  acq.num_refine = 3;
  acq.refine_passes = 2;
  return acq;
}

}  // namespace

Result<SessionResult> RunMethod(MethodKind method,
                                DbInstanceSimulator* simulator,
                                const MethodInputs& inputs,
                                const ExperimentConfig& config) {
  const size_t dim = simulator->knob_space().dim();
  std::unique_ptr<Advisor> advisor;
  switch (method) {
    case MethodKind::kResTune:
    case MethodKind::kResTuneNoWorkload: {
      ResTuneAdvisorOptions options;
      options.seed = config.seed;
      options.acq_optimizer = FastAcqOptions();
      options.meta.target_gp = FastGpOptions(config.seed ^ 0x77);
      options.meta.ranking_loss_samples = 20;
      options.workload_characterization_init =
          method == MethodKind::kResTune;
      advisor = std::make_unique<ResTuneAdvisor>(
          dim, simulator->knob_space().DefaultTheta(), inputs.base_learners,
          inputs.target_meta_feature, options);
      break;
    }
    case MethodKind::kResTuneNoMl: {
      CboAdvisorOptions options;
      options.acquisition = CboAcquisition::kConstrainedEi;
      options.gp = FastGpOptions(config.seed);
      options.acq_optimizer = FastAcqOptions();
      options.seed = config.seed;
      advisor = std::make_unique<CboAdvisor>("ResTune-w/o-ML", dim, options);
      break;
    }
    case MethodKind::kITuned: {
      CboAdvisorOptions options;
      options.acquisition = CboAcquisition::kUnconstrainedEi;
      options.gp = FastGpOptions(config.seed);
      options.acq_optimizer = FastAcqOptions();
      options.seed = config.seed;
      advisor = std::make_unique<CboAdvisor>("iTuned", dim, options);
      break;
    }
    case MethodKind::kOtterTune: {
      OtterTuneAdvisorOptions options;
      options.gp = FastGpOptions(config.seed);
      options.acq_optimizer = FastAcqOptions();
      options.seed = config.seed;
      advisor = std::make_unique<OtterTuneAdvisor>(
          dim, inputs.repository_tasks, options);
      break;
    }
    case MethodKind::kCdbTune: {
      CdbTuneAdvisorOptions options;
      options.seed = config.seed;
      advisor = std::make_unique<CdbTuneAdvisor>(dim, options);
      break;
    }
    case MethodKind::kGridSearch: {
      advisor = std::make_unique<GridSearchAdvisor>(dim, 8);
      break;
    }
  }
  EventSessionOptions session_options = SequentialSessionOptions();
  session_options.max_iterations = config.iterations;
  session_options.sla_tolerance = config.sla_tolerance;
  session_options.fault = config.fault_tolerance;
  return EventTuningSession(simulator, advisor.get(), session_options).Run();
}

int BenchIterations(int default_iters) {
  const char* env = std::getenv("RESTUNE_BENCH_ITERS");
  if (env == nullptr) return default_iters;
  const int v = std::atoi(env);
  return v > 0 ? std::min(v, default_iters) : default_iters;
}

}  // namespace restune
