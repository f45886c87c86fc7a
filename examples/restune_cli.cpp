// restune_cli — command-line front end for the library: run a tuning
// session against the simulated DBMS from flags, optionally boosted by a
// repository file, and print the recommendation.
//
// Usage:
//   restune_cli [--workload sysbench|tpcc|twitter|hotel|sales]
//               [--instance A..F] [--resource cpu|memory|io_bps|io_iops]
//               [--iterations N] [--seed S]
//               [--method restune|noml|ituned|ottertune|cdbtune]
//               [--repository FILE] [--save-repository FILE]
//               [--data-gb G] [--trace-out trace.jsonl]
//               [--server HOST:PORT]
//
// With --save-repository, the finished session's observations are appended
// to the repository file so later runs start warm (the paper's flywheel).
// Repository files are binary (docs/SERVICE.md, "On disk") and are
// replaced atomically, so an interrupted save keeps the previous file.
// With --trace-out, the session's spans and final counters are written as
// JSON lines (see docs/OBSERVABILITY.md for the schema).
//
// With --server, the CLI becomes the paper's client half (Figure 2): it
// keeps the workload replay local — only meta-features and metric tuples
// cross the wire — and drives a remote restune_serve process through
// TuningClient for its recommendations (docs/SERVICE.md). The server's
// advisor does the suggesting, so --method/--repository do not apply.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "obs/trace.h"
#include "service/tuning_client.h"
#include "tuner/harness.h"

using namespace restune;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: restune_cli [--workload W] [--instance A-F] [--resource R]\n"
      "                   [--iterations N] [--seed S] [--method M]\n"
      "                   [--repository FILE] [--save-repository FILE]\n"
      "                   [--data-gb G] [--trace-out FILE]\n"
      "                   [--server HOST:PORT]\n");
}

/// Remote mode: the tuning loop with the advisor on the other end of a
/// TCP connection. Replays stay local to this process (the simulator
/// stands in for the tenant DBMS); each round trip ships one
/// recommendation down and one (res, tps, lat) tuple or fault back up.
int RunRemoteSession(const std::string& server_address,
                     DbInstanceSimulator* sim, const Vector& meta_feature,
                     const std::string& resource, int iterations) {
  const size_t colon = server_address.rfind(':');
  if (colon == std::string::npos || colon + 1 == server_address.size()) {
    std::fprintf(stderr, "--server wants HOST:PORT, got '%s'\n",
                 server_address.c_str());
    return 2;
  }
  const std::string host = server_address.substr(0, colon);
  const uint16_t port =
      static_cast<uint16_t>(std::atoi(server_address.c_str() + colon + 1));

  const KnobSpace& space = sim->knob_space();
  const Result<Observation> default_obs = sim->EvaluateDefault();
  if (!default_obs.ok()) {
    std::fprintf(stderr, "%s\n", default_obs.status().ToString().c_str());
    return 1;
  }

  TargetTaskSubmission submission;
  submission.task_name =
      sim->workload().name + "@" + sim->hardware().name;
  submission.meta_feature = meta_feature;
  submission.knob_dim = space.dim();
  submission.default_theta = space.DefaultTheta();
  submission.default_observation = *default_obs;
  submission.default_observation.theta = submission.default_theta;
  submission.resource = resource;

  Result<TuningClient> client = TuningClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s:%u: %s\n", host.c_str(), port,
                 client.status().ToString().c_str());
    return 1;
  }
  const Result<uint64_t> session = client->StartSession(submission);
  if (!session.ok()) {
    std::fprintf(stderr, "start session: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::printf("tuning %s against %s:%u (session %llu, %d iterations)...\n",
              submission.task_name.c_str(), host.c_str(), port,
              static_cast<unsigned long long>(*session), iterations);

  for (int iter = 0; iter < iterations; ++iter) {
    const Result<KnobRecommendation> rec = client->Recommend(*session);
    if (!rec.ok()) {
      std::fprintf(stderr, "recommend: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    const Result<EvaluationOutcome> outcome = sim->TryEvaluate(rec->theta);
    if (!outcome.ok()) {
      std::fprintf(stderr, "evaluate: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    EvaluationReport report;
    report.session_id = *session;
    report.iteration = rec->iteration;
    if (outcome->ok()) {
      report.observation = outcome->observation();
      report.observation.theta = rec->theta;
    } else {
      report.fault = outcome->fault().kind;
      std::printf("  iteration %d failed: %s\n", rec->iteration,
                  FaultKindName(report.fault));
    }
    const Status reported = client->ReportEvaluation(report);
    if (!reported.ok()) {
      std::fprintf(stderr, "report: %s\n", reported.ToString().c_str());
      return 1;
    }
  }

  const Result<SessionSummary> summary = client->FinishSession(*session);
  if (!summary.ok()) {
    std::fprintf(stderr, "finish: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  std::printf("\ndefault %s: %.2f   best feasible: %.2f  (-%.1f%%, %d "
              "iterations)\n",
              resource.c_str(), default_obs->res, summary->best_feasible_res,
              100.0 * (default_obs->res - summary->best_feasible_res) /
                  default_obs->res,
              summary->iterations);
  if (summary->best_theta.size() == space.dim()) {
    std::printf("\nrecommended knobs:\n");
    const Vector raw = space.ToRaw(summary->best_theta);
    for (size_t i = 0; i < space.dim(); ++i) {
      std::printf("  %-36s = %.6g\n", space.knob(i).name.c_str(), raw[i]);
    }
  }
  if (summary->archived_to_repository) {
    std::printf("\nsession archived to the server's repository\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Logger::SetThreshold(LogLevel::kWarning);

  std::string workload_name = "twitter";
  char instance = 'E';
  std::string resource = "cpu";
  std::string method_name = "restune";
  std::string repository_path, save_repository_path;
  std::string trace_out_path;
  std::string server_address;
  double data_gb = 0.0;
  ExperimentConfig config;
  config.iterations = 50;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = next();
      if (!v) return Usage(), 2;
      workload_name = v;
    } else if (arg == "--instance") {
      const char* v = next();
      if (!v || std::strlen(v) != 1) return Usage(), 2;
      instance = v[0];
    } else if (arg == "--resource") {
      const char* v = next();
      if (!v) return Usage(), 2;
      resource = v;
    } else if (arg == "--iterations") {
      const char* v = next();
      if (!v) return Usage(), 2;
      config.iterations = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return Usage(), 2;
      config.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--method") {
      const char* v = next();
      if (!v) return Usage(), 2;
      method_name = v;
    } else if (arg == "--repository") {
      const char* v = next();
      if (!v) return Usage(), 2;
      repository_path = v;
    } else if (arg == "--save-repository") {
      const char* v = next();
      if (!v) return Usage(), 2;
      save_repository_path = v;
    } else if (arg == "--data-gb") {
      const char* v = next();
      if (!v) return Usage(), 2;
      data_gb = std::atof(v);
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return Usage(), 2;
      trace_out_path = v;
    } else if (arg == "--server") {
      const char* v = next();
      if (!v) return Usage(), 2;
      server_address = v;
    } else {
      Usage();
      return 2;
    }
  }

  // Resolve flags.
  WorkloadKind kind;
  if (workload_name == "sysbench") kind = WorkloadKind::kSysbench;
  else if (workload_name == "tpcc") kind = WorkloadKind::kTpcc;
  else if (workload_name == "twitter") kind = WorkloadKind::kTwitter;
  else if (workload_name == "hotel") kind = WorkloadKind::kHotel;
  else if (workload_name == "sales") kind = WorkloadKind::kSales;
  else return Usage(), 2;

  if (resource == "cpu") config.resource = ResourceKind::kCpu;
  else if (resource == "memory") config.resource = ResourceKind::kMemory;
  else if (resource == "io_bps") config.resource = ResourceKind::kIoBps;
  else if (resource == "io_iops") config.resource = ResourceKind::kIoIops;
  else return Usage(), 2;

  MethodKind method;
  if (method_name == "restune") method = MethodKind::kResTune;
  else if (method_name == "noml") method = MethodKind::kResTuneNoMl;
  else if (method_name == "ituned") method = MethodKind::kITuned;
  else if (method_name == "ottertune") method = MethodKind::kOtterTune;
  else if (method_name == "cdbtune") method = MethodKind::kCdbTune;
  else return Usage(), 2;

  const Result<HardwareSpec> hw = HardwareInstance(instance);
  if (!hw.ok()) {
    std::fprintf(stderr, "%s\n", hw.status().ToString().c_str());
    return 1;
  }
  const Result<WorkloadProfile> workload = MakeWorkload(kind, data_gb);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  const KnobSpace space = config.resource == ResourceKind::kMemory
                              ? MemoryKnobSpace(hw->ram_gb)
                              : config.resource == ResourceKind::kCpu
                                    ? CpuKnobSpace()
                                    : IoKnobSpace();

  Result<DbInstanceSimulator> sim =
      MakeSimulator(space, instance, *workload, config);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }

  if (!server_address.empty()) {
    const WorkloadCharacterizer remote_characterizer =
        TrainDefaultCharacterizer();
    return RunRemoteSession(
        server_address, &*sim,
        ComputeMetaFeature(remote_characterizer, *workload), resource,
        config.iterations);
  }

  // Optional repository.
  MethodInputs inputs;
  DataRepository repo;
  const WorkloadCharacterizer characterizer = TrainDefaultCharacterizer();
  if (!repository_path.empty()) {
    const Status st = repo.LoadFromFile(repository_path);
    if (!st.ok()) {
      std::fprintf(stderr, "repository: %s\n", st.ToString().c_str());
      return 1;
    }
    inputs.base_learners = repo.TrainBaseLearners([&](const TuningTask& t) {
      return !t.observations.empty() &&
             t.observations[0].theta.size() == space.dim();
    });
    inputs.repository_tasks = repo.tasks();
    std::printf("repository: %zu tasks, %zu usable base-learners\n",
                repo.num_tasks(), inputs.base_learners.size());
  }
  inputs.target_meta_feature = ComputeMetaFeature(characterizer, *workload);

  std::printf("tuning %s on %s for %s with %s (%d iterations)...\n",
              workload->name.c_str(), hw->name.c_str(), resource.c_str(),
              MethodName(method), config.iterations);
  if (!trace_out_path.empty() &&
      !obs::Tracer::Global()->Start(trace_out_path)) {
    std::fprintf(stderr, "trace-out: cannot open '%s' for writing\n",
                 trace_out_path.c_str());
    return 1;
  }
  const Result<SessionResult> result =
      RunMethod(method, &*sim, inputs, config);
  if (!trace_out_path.empty()) {
    obs::Tracer::Global()->Stop();
    std::fprintf(stderr, "trace written to %s\n", trace_out_path.c_str());
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\ndefault %s: %.2f   best feasible: %.2f  (-%.1f%%, found at "
              "iteration %d)\n",
              resource.c_str(), result->default_observation.res,
              result->best_feasible_res,
              100.0 * (result->default_observation.res -
                       result->best_feasible_res) /
                  result->default_observation.res,
              result->best_iteration);
  std::printf("\nrecommended knobs:\n");
  const Vector raw = space.ToRaw(result->best_theta);
  for (size_t i = 0; i < space.dim(); ++i) {
    std::printf("  %-36s = %.6g\n", space.knob(i).name.c_str(), raw[i]);
  }

  if (!save_repository_path.empty()) {
    TuningTask task;
    task.name = workload->name + "@" + hw->name;
    task.workload = workload->name;
    task.hardware = hw->name;
    task.meta_feature = inputs.target_meta_feature;
    task.observations.push_back(result->default_observation);
    for (const IterationRecord& rec : result->history) {
      task.observations.push_back(rec.observation);
    }
    DataRepository out = std::move(repo);
    const Status add = out.AddTask(std::move(task));
    const Status save = add.ok() ? out.SaveToFile(save_repository_path) : add;
    if (!save.ok()) {
      std::fprintf(stderr, "save-repository: %s\n", save.ToString().c_str());
      return 1;
    }
    std::printf("\nsession archived to %s (%zu tasks)\n",
                save_repository_path.c_str(), out.num_tasks());
  }
  return 0;
}
