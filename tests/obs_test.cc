/// Observability subsystem: metric instrument semantics, registry snapshot/
/// restore, the Prometheus dump, the trace JSONL schema, and the two
/// integration contracts — sessions emit per-iteration spans, and checkpoint
/// resume rewinds the counters to the uninterrupted run's totals.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>  // restune-lint: allow(raw-thread) -- concurrency test
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tuner/checkpoint.h"
#include "tuner/event_session.h"
#include "tuner/harness.h"
#include "tuner/restune_advisor.h"

namespace restune {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;

class ObsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Logger::SetThreshold(LogLevel::kError); }
  void SetUp() override { MetricsRegistry::Global()->ResetForTest(); }
};

TEST_F(ObsTest, CounterSumsAcrossShardsAndThreads) {
  Counter* counter = MetricsRegistry::Global()->GetCounter("obs_test_counter");
  EXPECT_EQ(counter->Value(), 0);
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42);

  // Concurrent adds from many threads land on different shards but must sum
  // exactly. Raw std::thread is deliberate: the contract under test is the
  // instrument's, independent of the ThreadPool (which is itself
  // instrumented).
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;  // restune-lint: allow(raw-thread)
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // restune-lint: allow(raw-thread) -- exercising lock-free increments
    threads.emplace_back([counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), 42 + kThreads * kAddsPerThread);

  counter->Set(7);
  EXPECT_EQ(counter->Value(), 7);
}

TEST_F(ObsTest, GaugeKeepsLastValueIncludingNegativeAndFractional) {
  Gauge* gauge = MetricsRegistry::Global()->GetGauge("obs_test_gauge");
  EXPECT_EQ(gauge->Value(), 0.0);
  gauge->Set(0.25);
  EXPECT_EQ(gauge->Value(), 0.25);
  gauge->Set(-3.5);
  EXPECT_EQ(gauge->Value(), -3.5);
}

TEST_F(ObsTest, HistogramFixedLogBucketLayout) {
  // Bucket i covers [1e-6 * 2^i, 1e-6 * 2^(i+1)).
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e-9), 0u);   // below range -> bucket 0
  EXPECT_EQ(Histogram::BucketIndex(1e-6), 0u);   // first boundary
  EXPECT_EQ(Histogram::BucketIndex(1.9e-6), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2e-6), 1u);
  EXPECT_EQ(Histogram::BucketIndex(4.1e-6), 2u);
  EXPECT_EQ(Histogram::BucketIndex(1e9), obs::kHistogramBuckets);  // overflow
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 4e-6);

  Histogram* h = MetricsRegistry::Global()->GetHistogram("obs_test_hist");
  h->Observe(1.5e-6);
  h->Observe(3e-6);
  h->Observe(3e-6);
  h->Observe(1e9);
  EXPECT_EQ(h->Count(), 4);
  EXPECT_NEAR(h->Sum(), 1e9 + 7.5e-6, 1.0);
  const std::vector<int64_t> buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), obs::kHistogramBuckets + 1);
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 2);
  EXPECT_EQ(buckets.back(), 1);
}

TEST_F(ObsTest, RestoreCountersOverwritesAndZeroesUnnamed) {
  auto* registry = MetricsRegistry::Global();
  Counter* a = registry->GetCounter("obs_test_restore_a");
  Counter* b = registry->GetCounter("obs_test_restore_b");
  a->Add(10);
  b->Add(20);
  registry->RestoreCounters({{"obs_test_restore_a", 3},
                             {"obs_test_restore_new", 5}});
  EXPECT_EQ(a->Value(), 3);
  EXPECT_EQ(b->Value(), 0);  // not in the snapshot -> rewound to zero
  EXPECT_EQ(registry->GetCounter("obs_test_restore_new")->Value(), 5);
}

TEST_F(ObsTest, PrometheusTextExposesAllInstrumentKinds) {
  auto* registry = MetricsRegistry::Global();
  registry->GetCounter("obs_test_prom_total")->Add(3);
  registry->GetCounter("obs_test_prom_labeled_total{kind=\"crash\"}")->Add(1);
  registry->GetGauge("obs_test_prom_gauge")->Set(0.5);
  registry->GetHistogram("obs_test_prom_hist")->Observe(3e-6);

  const std::string text = registry->PrometheusText();
  EXPECT_NE(text.find("# TYPE obs_test_prom_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_total 3"), std::string::npos);
  // The label block stays attached to the sample, with the TYPE line naming
  // only the base metric.
  EXPECT_NE(text.find("# TYPE obs_test_prom_labeled_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_labeled_total{kind=\"crash\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_gauge 0.5"), std::string::npos);
  // Histogram exposition: cumulative buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_count 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_sum"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace layer
// ---------------------------------------------------------------------------

/// Minimal JSONL schema check without a JSON parser: every line is one
/// object, and span lines carry the documented fields.
void ValidateTraceFile(const std::string& path, int* num_spans,
                       int* num_counters) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open trace " << path;
  std::string line;
  int line_no = 0;
  bool saw_start = false, saw_end = false;
  *num_spans = 0;
  *num_counters = 0;
  while (std::getline(in, line)) {
    ++line_no;
    ASSERT_FALSE(line.empty()) << "blank line " << line_no;
    ASSERT_EQ(line.front(), '{') << "line " << line_no;
    ASSERT_EQ(line.back(), '}') << "line " << line_no;
    if (line.find("\"type\":\"trace_start\"") != std::string::npos) {
      EXPECT_EQ(line_no, 1) << "trace_start must be the first record";
      EXPECT_NE(line.find("\"clock\":\"steady\""), std::string::npos);
      saw_start = true;
    } else if (line.find("\"type\":\"span\"") != std::string::npos) {
      ++*num_spans;
      EXPECT_NE(line.find("\"name\":\""), std::string::npos) << line;
      EXPECT_NE(line.find("\"t_us\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"dur_us\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"tid\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"depth\":"), std::string::npos) << line;
    } else if (line.find("\"type\":\"counter\"") != std::string::npos) {
      ++*num_counters;
      EXPECT_NE(line.find("\"name\":\""), std::string::npos) << line;
      EXPECT_NE(line.find("\"value\":"), std::string::npos) << line;
    } else if (line.find("\"type\":\"event\"") != std::string::npos) {
      // Session lifecycle lines (launch / complete / mode_transition /
      // checkpoint); free-form beyond the event tag.
      EXPECT_NE(line.find("\"event\":\""), std::string::npos) << line;
    } else if (line.find("\"type\":\"trace_end\"") != std::string::npos) {
      saw_end = true;
    } else if (line.find("\"type\":\"gauge\"") == std::string::npos) {
      FAIL() << "unknown record type on line " << line_no << ": " << line;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_end) << "trace not closed by Stop()";
}

/// Number of span lines named `name` in the trace file at `path`.
int CountSpans(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  const std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const std::string needle = "\"name\":\"" + name + "\"";
  int n = 0;
  for (size_t pos = all.find(needle); pos != std::string::npos;
       pos = all.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

DbInstanceSimulator ObsSimulator() {
  SimulatorOptions options;
  options.seed = 515;
  return DbInstanceSimulator(CaseStudyKnobSpace(),
                             HardwareInstance('A').value(),
                             MakeWorkload(WorkloadKind::kTwitter).value(),
                             options);
}

ResTuneAdvisor ObsAdvisor() {
  ResTuneAdvisorOptions options;
  options.workload_characterization_init = false;
  return ResTuneAdvisor(3, CaseStudyKnobSpace().DefaultTheta(), {}, {},
                        options);
}

EventSessionOptions ObsOptions(int iterations) {
  EventSessionOptions options = SequentialSessionOptions();
  options.max_iterations = iterations;
  options.sla_tolerance = 0.05;
  return options;
}

TEST_F(ObsTest, SessionWithTracingEmitsPerIterationSpans) {
  const std::string path = testing::TempDir() + "/obs_session_trace.jsonl";
  ASSERT_TRUE(obs::Tracer::Global()->Start(path));
  {
    DbInstanceSimulator sim = ObsSimulator();
    ResTuneAdvisor advisor = ObsAdvisor();
    const auto result =
        EventTuningSession(&sim, &advisor, ObsOptions(12)).Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->history.size(), 12u);
  }
  obs::Tracer::Global()->Stop();

  int num_spans = 0, num_counters = 0;
  ValidateTraceFile(path, &num_spans, &num_counters);
  EXPECT_GT(num_counters, 0);

  // The taxonomy's per-iteration spans must all be present: fit, acquisition
  // and evaluation once per loop iteration.
  EXPECT_EQ(CountSpans(path, "session.iteration"), 12);
  EXPECT_EQ(CountSpans(path, "session.launch"), 12);
  // + the default bootstrap
  EXPECT_EQ(CountSpans(path, "eval.supervised"), 13);
  EXPECT_GT(CountSpans(path, "gp.fit"), 0);
  EXPECT_GT(CountSpans(path, "meta.weights"), 0);
  // The LHS phase suggests without sweeping, so acq spans appear only after
  // the design is exhausted — but with 12 > static_weight_iterations (10)
  // they must appear.
  EXPECT_GT(CountSpans(path, "acq.sweep"), 0);
  std::remove(path.c_str());
}

TEST_F(ObsTest, EveryTable3MethodEmitsItsPhaseSpans) {
  // bench_table3_breakdown builds paper Table 3 from these spans: a method
  // that stops emitting one silently drops out of a column.
  constexpr int kIterations = 8;
  ExperimentConfig config;
  config.iterations = kIterations;
  const KnobSpace space = CaseStudyKnobSpace();
  const WorkloadProfile target = MakeWorkload(WorkloadKind::kTwitter).value();
  const WorkloadCharacterizer characterizer = TrainDefaultCharacterizer();
  DataRepository repo;
  ASSERT_TRUE(repo.AddTask(CollectHistoryTask(
                               space, HardwareInstance('B').value(),
                               MakeWorkload(WorkloadKind::kSysbench).value(),
                               characterizer, config, 20))
                  .ok());
  MethodInputs inputs;
  inputs.base_learners = repo.TrainAllBaseLearners();
  inputs.repository_tasks = repo.tasks();
  inputs.target_meta_feature = ComputeMetaFeature(characterizer, target);

  struct Case {
    MethodKind method;
    std::vector<std::string> meta_spans;
  };
  const std::vector<Case> cases = {
      {MethodKind::kResTune, {"meta.base_predictions", "meta.weights"}},
      {MethodKind::kResTuneNoMl, {}},
      {MethodKind::kITuned, {}},
      {MethodKind::kOtterTune, {"meta.remap"}},
      {MethodKind::kCdbTune, {}}};
  const std::string path = testing::TempDir() + "/obs_table3_trace.jsonl";
  for (const Case& c : cases) {
    SCOPED_TRACE(MethodName(c.method));
    auto sim = MakeSimulator(space, 'A', target, config).value();
    ASSERT_TRUE(obs::Tracer::Global()->Start(path));
    const auto result = RunMethod(c.method, &sim, inputs, config);
    obs::Tracer::Global()->Stop();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->history.size(), static_cast<size_t>(kIterations));

    EXPECT_EQ(CountSpans(path, "advisor.suggest"), kIterations);
    // Begin feeds the default observation through Observe, except in
    // CDBTune, which keeps it as its first RL state.
    const int bootstrap = c.method == MethodKind::kCdbTune ? 0 : 1;
    EXPECT_EQ(CountSpans(path, "advisor.observe"), kIterations + bootstrap);
    for (const std::string& name : c.meta_spans) {
      EXPECT_GT(CountSpans(path, name), 0) << name;
    }
    std::remove(path.c_str());
  }
}

TEST_F(ObsTest, TraceSpanIsNoopWhenTracerDisabled) {
  ASSERT_FALSE(obs::Tracer::Global()->enabled());
  { RESTUNE_TRACE_SPAN("obs.test.disabled"); }
  // Nothing to assert beyond "did not crash / did not write": the span
  // ctor reads one atomic and bails.
  SUCCEED();
}

TEST_F(ObsTest, CheckpointRoundTripsCounterSnapshot) {
  EventSessionCheckpoint checkpoint;
  checkpoint.metrics = {{"restune_gp_fits_total", 17},
                        {"restune_eval_faults_total{kind=\"crash\"}", 2}};
  std::stringstream stream;
  ASSERT_TRUE(SaveEventSessionCheckpoint(checkpoint, &stream).ok());
  const auto loaded = LoadEventSessionCheckpoint(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->metrics.size(), 2u);
  EXPECT_EQ(loaded->metrics[0].first, "restune_gp_fits_total");
  EXPECT_EQ(loaded->metrics[0].second, 17);
  EXPECT_EQ(loaded->metrics[1].first,
            "restune_eval_faults_total{kind=\"crash\"}");
  EXPECT_EQ(loaded->metrics[1].second, 2);
}

TEST_F(ObsTest, CheckpointWithEmptyCounterSnapshotLoads) {
  EventSessionCheckpoint checkpoint;
  std::stringstream stream;
  ASSERT_TRUE(SaveEventSessionCheckpoint(checkpoint, &stream).ok());
  const auto loaded = LoadEventSessionCheckpoint(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->metrics.empty());
}

TEST_F(ObsTest, ResumeRestoresCountersToUninterruptedTotals) {
  const std::string path = testing::TempDir() + "/obs_resume.ckpt";
  auto* registry = MetricsRegistry::Global();

  // Control: uninterrupted 20-iteration run.
  int64_t control_fits = 0;
  {
    DbInstanceSimulator sim = ObsSimulator();
    ResTuneAdvisor advisor = ObsAdvisor();
    const auto control =
        EventTuningSession(&sim, &advisor, ObsOptions(20)).Run();
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    control_fits = registry->GetCounter("restune_gp_fits_total")->Value();
    ASSERT_GT(control_fits, 0);
  }

  // Interrupted: killed after 10 iterations with checkpointing, then a
  // fresh process state (counters reset) resumes to 20.
  registry->ResetForTest();
  EventSessionOptions half = ObsOptions(20);
  half.fault.checkpoint_path = path;
  half.fault.checkpoint_period = 5;
  half.halt_after_completions = 10;
  {
    DbInstanceSimulator sim = ObsSimulator();
    ResTuneAdvisor advisor = ObsAdvisor();
    const auto first = EventTuningSession(&sim, &advisor, half).Run();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
  }
  registry->ResetForTest();  // "process restart"
  EventSessionOptions rest = ObsOptions(20);
  rest.fault.checkpoint_path = path;
  {
    DbInstanceSimulator sim = ObsSimulator();
    ResTuneAdvisor advisor = ObsAdvisor();
    const auto resumed = EventTuningSession(&sim, &advisor, rest).Resume();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE(resumed->resumed);
  }
  // Replay re-ran the advisor's fits for iterations 1..10; the restore must
  // have rewound the counter so the final total matches the control run.
  EXPECT_EQ(registry->GetCounter("restune_gp_fits_total")->Value(),
            control_fits);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace restune
