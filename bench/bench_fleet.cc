// Multi-tenant wire-service benchmark for the CI perf gate: a fleet of
// concurrent client sessions driving ONE WireServer over loopback TCP,
// measuring recommendation throughput (recs_per_sec) and tail suggest
// latency (p99_ms, client-observed Recommend round trip). Where
// bench_tuning_session times a single in-process loop, this measures the
// deployment shape of the paper's Figure 2 — many tenants against one
// tuning cluster — with framing, the event loop, and the server's coarse
// lock all on the clock.
//
// CI runs it through tools/run_ci_bench.py, which folds the two user
// counters into the BENCH_<n>.json rows next to cpu_ms_median and gates
// merges on tools/check_bench_regression.py vs bench/baseline.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "service/restune_server.h"
#include "service/tuning_client.h"
#include "service/wire_server.h"

namespace restune {
namespace {

/// Cheap advisor settings: the fleet multiplies every suggestion cost by
/// the session count, and this benchmark times the service, not the BO.
ServerOptions FleetServerOptions() {
  ServerOptions options;
  options.advisor.acq_optimizer.num_candidates = 32;
  options.advisor.acq_optimizer.num_refine = 1;
  options.advisor.acq_optimizer.refine_passes = 2;
  options.archive_finished_sessions = false;
  return options;
}

TargetTaskSubmission FleetSubmission(size_t tenant) {
  TargetTaskSubmission sub;
  sub.task_name = "fleet-tenant-" + std::to_string(tenant);
  sub.meta_feature = {0.3, 0.7};
  sub.knob_dim = 3;
  sub.default_theta = {0.5, 0.5, 0.5};
  sub.default_observation.theta = sub.default_theta;
  sub.default_observation.res = 10.0;
  sub.default_observation.tps = 100.0;
  sub.default_observation.lat = 5.0;
  sub.resource = "cpu";
  return sub;
}

// One benchmark iteration = one fleet-wide sweep: every tenant asks for a
// recommendation and reports an evaluation. `state.range(0)` tenants,
// `state.range(1)` driver threads. Fixed Iterations(2) bound each
// session's history, so the per-suggest cost stays flat and the gate
// compares like with like.
void BM_FleetRecommend(benchmark::State& state) {
  Logger::SetThreshold(LogLevel::kError);
  const size_t fleet = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));

  ResTuneServer server(FleetServerOptions());
  WireServerOptions wire_options;
  wire_options.loop.max_connections = fleet + 8;
  WireServer wire(&server, wire_options);
  if (!wire.Start().ok()) {
    state.SkipWithError("wire server failed to start");
    return;
  }

  ThreadPool drivers(threads);
  std::vector<std::optional<TuningClient>> clients(fleet);
  std::vector<uint64_t> session_ids(fleet, 0);
  std::vector<char> ready(fleet, 0);  // not vector<bool>: parallel slot writes
  drivers.ParallelFor(fleet, [&](size_t i) {
    auto client = TuningClient::Connect("127.0.0.1", wire.port());
    if (!client.ok()) return;
    const auto session = client->StartSession(FleetSubmission(i));
    if (!session.ok()) return;
    clients[i] = std::move(client).value();
    session_ids[i] = *session;
    ready[i] = true;
  });
  for (size_t i = 0; i < fleet; ++i) {
    if (!ready[i]) {
      state.SkipWithError("fleet setup failed");
      return;
    }
  }

  // Per-tenant latency slots: each driver writes only its own vector, the
  // ThreadPool determinism contract.
  std::vector<std::vector<double>> latency_ms(fleet);
  std::vector<char> ok(fleet, 1);
  int64_t recs = 0;
  for (auto _ : state) {
    drivers.ParallelFor(fleet, [&](size_t i) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto rec = clients[i]->Recommend(session_ids[i]);
      latency_ms[i].push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count());
      if (!rec.ok()) {
        ok[i] = false;
        return;
      }
      EvaluationReport report;
      report.session_id = session_ids[i];
      report.iteration = rec->iteration;
      report.observation.theta = rec->theta;
      report.observation.res = 9.0;
      report.observation.tps = 101.0;
      report.observation.lat = 4.9;
      if (!clients[i]->ReportEvaluation(report).ok()) ok[i] = false;
    });
    recs += static_cast<int64_t>(fleet);
  }
  for (size_t i = 0; i < fleet; ++i) {
    if (!ok[i]) {
      state.SkipWithError("a tenant lost a round trip");
      return;
    }
  }

  std::vector<double> all;
  for (const auto& slot : latency_ms) {
    all.insert(all.end(), slot.begin(), slot.end());
  }
  std::sort(all.begin(), all.end());
  const double p99 =
      all.empty() ? 0.0
                  : all[std::min(all.size() * 99 / 100, all.size() - 1)];
  state.counters["recs_per_sec"] =
      benchmark::Counter(static_cast<double>(recs), benchmark::Counter::kIsRate);
  state.counters["p99_ms"] = benchmark::Counter(p99);
}

BENCHMARK(BM_FleetRecommend)
    ->Args({100, 8})
    ->Args({1000, 8})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace restune
