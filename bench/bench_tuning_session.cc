// Short-mode end-to-end tuning-session benchmark for the CI perf gate:
// a cold-start ResTune advisor driving the simulated DBMS for a handful
// of iterations, the same configuration as the fault-injection soak but
// sized to finish in seconds. Where bench_micro_core times the algorithmic
// phases in isolation, this measures the composed loop (suggest → evaluate
// → observe → refit) that users actually pay for per iteration.
//
// CI runs it through tools/run_ci_bench.py, which converts the
// google-benchmark JSON into BENCH_6.json lines
//   {"bench":..., "n":..., "threads":..., "cpu_ms_median":..., "iterations":...}
// and gates merges on tools/check_bench_regression.py vs bench/baseline.json.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tuner/restune_advisor.h"
#include "tuner/event_session.h"

namespace restune {
namespace {

DbInstanceSimulator BenchSimulator() {
  SimulatorOptions options;
  options.seed = 2026;
  return DbInstanceSimulator(CaseStudyKnobSpace(),
                             HardwareInstance('A').value(),
                             MakeWorkload(WorkloadKind::kTwitter).value(),
                             options);
}

ResTuneAdvisor BenchAdvisor(ThreadPool* pool) {
  ResTuneAdvisorOptions options;
  options.workload_characterization_init = false;
  options.acq_optimizer.pool = pool;
  return ResTuneAdvisor(3, CaseStudyKnobSpace().DefaultTheta(), {}, {},
                        options);
}

// One full cold-start session of `n` iterations; `threads` sizes the
// acquisition thread pool. Each benchmark iteration rebuilds the advisor
// and simulator so runs are independent and deterministic.
void BM_TuningSessionShort(benchmark::State& state) {
  Logger::SetThreshold(LogLevel::kError);
  const int iterations = static_cast<int>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  EventSessionOptions options = SequentialSessionOptions();
  options.max_iterations = iterations;
  options.sla_tolerance = 0.05;
  for (auto _ : state) {
    ThreadPool pool(threads);
    DbInstanceSimulator sim = BenchSimulator();
    ResTuneAdvisor advisor = BenchAdvisor(&pool);
    const Result<SessionResult> result =
        EventTuningSession(&sim, &advisor, options).Run();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->best_feasible_res);
  }
}
BENCHMARK(BM_TuningSessionShort)
    ->Args({15, 1})
    ->Args({15, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace restune
