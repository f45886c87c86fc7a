/// Long-running fault-injection soak for the full ResTune advisor — the
/// acceptance experiment of the fault-tolerance work, kept out of the fast
/// tier-1 suite (and runnable under sanitizers via RESTUNE_SANITIZE):
///
///  * a 200-iteration session with 20% injected crash/timeout/transient/
///    corruption faults completes and its feasible best lands within 10%
///    of the fault-free run's best resource value;
///  * a session killed at iteration 100 resumes from its checkpoint to a
///    byte-identical remaining trace;
///  * the acquisition thread pool does not change the trace (1 worker vs 8).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tuner/restune_advisor.h"
#include "tuner/event_session.h"

namespace restune {
namespace {

DbInstanceSimulator SoakSimulator(FaultInjectionOptions faults = {}) {
  SimulatorOptions options;
  options.seed = 2026;
  options.faults = faults;
  return DbInstanceSimulator(CaseStudyKnobSpace(),
                             HardwareInstance('A').value(),
                             MakeWorkload(WorkloadKind::kTwitter).value(),
                             options);
}

FaultInjectionOptions SoakFaults() {
  FaultInjectionOptions faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.crash_prob = 0.04;
  faults.timeout_prob = 0.04;
  faults.transient_prob = 0.08;
  faults.corrupt_prob = 0.04;  // 20% of attempts fault in some way
  return faults;
}

/// The full advisor in its cold-start configuration (no repository, LHS
/// init) — the setting where every observation matters, so lost iterations
/// hurt the most.
ResTuneAdvisor SoakAdvisor(ThreadPool* pool = nullptr) {
  ResTuneAdvisorOptions options;
  options.workload_characterization_init = false;
  options.acq_optimizer.pool = pool;
  return ResTuneAdvisor(3, CaseStudyKnobSpace().DefaultTheta(), {}, {},
                        options);
}

EventSessionOptions SoakOptions(int iterations) {
  EventSessionOptions options = SequentialSessionOptions();
  options.max_iterations = iterations;
  options.sla_tolerance = 0.05;
  return options;
}

void ExpectIdenticalTraces(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    const IterationRecord& ra = a.history[i];
    const IterationRecord& rb = b.history[i];
    ASSERT_EQ(ra.observation.theta.size(), rb.observation.theta.size())
        << "iteration " << ra.iteration;
    for (size_t c = 0; c < ra.observation.theta.size(); ++c) {
      ASSERT_EQ(ra.observation.theta[c], rb.observation.theta[c])
          << "iteration " << ra.iteration << " knob " << c;
    }
    ASSERT_EQ(ra.observation.res, rb.observation.res)
        << "iteration " << ra.iteration;
    ASSERT_EQ(ra.observation.tps, rb.observation.tps);
    ASSERT_EQ(ra.observation.lat, rb.observation.lat);
    ASSERT_EQ(ra.failed, rb.failed) << "iteration " << ra.iteration;
    ASSERT_EQ(ra.fault, rb.fault) << "iteration " << ra.iteration;
    ASSERT_EQ(ra.attempts, rb.attempts) << "iteration " << ra.iteration;
    ASSERT_EQ(ra.backoff_seconds, rb.backoff_seconds);
    ASSERT_EQ(ra.best_feasible_res, rb.best_feasible_res);
  }
  EXPECT_EQ(a.best_feasible_res, b.best_feasible_res);
  EXPECT_EQ(a.best_iteration, b.best_iteration);
  EXPECT_EQ(a.failed_iterations, b.failed_iterations);
  EXPECT_EQ(a.total_retries, b.total_retries);
}

/// Where the soak writes its trace JSONL. Nightly CI sets
/// RESTUNE_TRACE_OUT so the trace survives as an artifact when the run
/// fails; locally it lands in the test temp dir and is cleaned up.
std::string SoakTracePath() {
  const char* env = std::getenv("RESTUNE_TRACE_OUT");
  if (env != nullptr && env[0] != '\0') return env;
  return testing::TempDir() + "/soak_trace.jsonl";
}

/// Checks the trace file against the schema in docs/OBSERVABILITY.md and
/// returns per-span-name counts: first line `trace_start` with a steady
/// clock, span lines carrying name/t_us/dur_us/tid/depth, counter and
/// gauge dumps, last line `trace_end`.
std::map<std::string, int> ValidateSoakTrace(const std::string& path) {
  std::map<std::string, int> span_counts;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing trace file " << path;
  std::string line;
  int line_no = 0;
  bool saw_end = false;
  auto has = [&](const std::string& token) {
    return line.find(token) != std::string::npos;
  };
  while (std::getline(in, line)) {
    ++line_no;
    EXPECT_FALSE(saw_end) << "line after trace_end: " << line;
    if (line.empty()) {
      ADD_FAILURE() << "blank line " << line_no;
      continue;
    }
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (line_no == 1) {
      EXPECT_TRUE(has("\"type\":\"trace_start\"")) << line;
      EXPECT_TRUE(has("\"clock\":\"steady\"")) << line;
    } else if (has("\"type\":\"span\"")) {
      EXPECT_TRUE(has("\"name\":\"")) << line;
      EXPECT_TRUE(has("\"t_us\":")) << line;
      EXPECT_TRUE(has("\"dur_us\":")) << line;
      EXPECT_TRUE(has("\"tid\":")) << line;
      EXPECT_TRUE(has("\"depth\":")) << line;
      const size_t name_at = line.find("\"name\":\"") + 8;
      const size_t name_end = line.find('"', name_at);
      if (name_end == std::string::npos) {
        ADD_FAILURE() << "unterminated span name: " << line;
        continue;
      }
      ++span_counts[line.substr(name_at, name_end - name_at)];
    } else if (has("\"type\":\"counter\"") || has("\"type\":\"gauge\"")) {
      EXPECT_TRUE(has("\"name\":\"")) << line;
      EXPECT_TRUE(has("\"value\":")) << line;
    } else if (has("\"type\":\"event\"")) {
      // Event-driven session lifecycle lines (launch / complete /
      // mode_transition / checkpoint); free-form beyond the event tag.
      EXPECT_TRUE(has("\"event\":\"")) << line;
    } else if (has("\"type\":\"trace_end\"")) {
      saw_end = true;
    } else {
      ADD_FAILURE() << "unknown trace line: " << line;
    }
  }
  EXPECT_GT(line_no, 1) << "empty trace " << path;
  EXPECT_TRUE(saw_end) << "truncated trace (no trace_end)";
  return span_counts;
}

class SoakTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Logger::SetThreshold(LogLevel::kError); }
};

TEST_F(SoakTest, TwentyPercentFaultsStayWithinTenPercentOfFaultFreeBest) {
  DbInstanceSimulator clean_sim = SoakSimulator();
  ResTuneAdvisor clean_advisor = SoakAdvisor();
  const auto clean =
      EventTuningSession(&clean_sim, &clean_advisor, SoakOptions(200)).Run();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->history.size(), 200u);
  ASSERT_EQ(clean->failed_iterations, 0);

  // Trace the faulty run: this is the session whose trace the nightly job
  // uploads on failure, and the schema-acceptance check for the obs layer.
  const std::string trace_path = SoakTracePath();
  ASSERT_TRUE(obs::Tracer::Global()->Start(trace_path));
  DbInstanceSimulator faulty_sim = SoakSimulator(SoakFaults());
  ResTuneAdvisor faulty_advisor = SoakAdvisor();
  const auto faulty =
      EventTuningSession(&faulty_sim, &faulty_advisor, SoakOptions(200)).Run();
  obs::Tracer::Global()->Stop();
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  // The session survives: all 200 iterations ran, faults actually fired,
  // and retries were spent on the retryable ones.
  ASSERT_EQ(faulty->history.size(), 200u);
  EXPECT_GT(faulty->failed_iterations, 0);
  EXPECT_LT(faulty->failed_iterations, 80);  // far from every iteration
  EXPECT_GT(faulty->total_retries, 0);

  // Tuning quality: a feasible best no more than 10% worse than the
  // fault-free run's, and still an improvement over the DBA default.
  EXPECT_LE(faulty->best_feasible_res, clean->best_feasible_res * 1.10)
      << "fault-free best " << clean->best_feasible_res << ", faulty best "
      << faulty->best_feasible_res;
  EXPECT_LT(faulty->best_feasible_res, faulty->default_observation.res);

  // The trace validates against the documented schema and carries the
  // per-iteration fit / acquisition / evaluation spans.
  const std::map<std::string, int> spans = ValidateSoakTrace(trace_path);
  EXPECT_EQ(spans.count("session.iteration") ? spans.at("session.iteration")
                                             : 0,
            200);
  EXPECT_GT(spans.count("gp.fit") ? spans.at("gp.fit") : 0, 0);
  EXPECT_GT(spans.count("acq.sweep") ? spans.at("acq.sweep") : 0, 0);
  // Every iteration plus the bootstrap evaluation, plus retried attempts.
  EXPECT_GE(spans.count("eval.supervised") ? spans.at("eval.supervised") : 0,
            201);
  if (std::getenv("RESTUNE_TRACE_OUT") == nullptr) {
    std::remove(trace_path.c_str());
  }
}

TEST_F(SoakTest, KilledAtIterationHundredResumesByteIdentically) {
  const std::string path = testing::TempDir() + "/soak_resume.ckpt";
  const FaultInjectionOptions faults = SoakFaults();

  // Control: one uninterrupted 200-iteration run under faults.
  DbInstanceSimulator control_sim = SoakSimulator(faults);
  ResTuneAdvisor control_advisor = SoakAdvisor();
  const auto control = EventTuningSession(&control_sim, &control_advisor,
                                          SoakOptions(200))
                           .Run();
  ASSERT_TRUE(control.ok()) << control.status().ToString();

  // "Kill" at iteration 100: halt the session there with checkpointing and
  // throw the process state away.
  EventSessionOptions half = SoakOptions(200);
  half.fault.checkpoint_path = path;
  half.fault.checkpoint_period = 25;
  half.halt_after_completions = 100;
  {
    DbInstanceSimulator sim = SoakSimulator(faults);
    ResTuneAdvisor advisor = SoakAdvisor();
    const auto first_half = EventTuningSession(&sim, &advisor, half).Run();
    ASSERT_TRUE(first_half.ok()) << first_half.status().ToString();
    ASSERT_EQ(first_half->history.size(), 100u);
  }

  // Resume with freshly constructed simulator and advisor.
  EventSessionOptions rest = SoakOptions(200);
  rest.fault.checkpoint_path = path;
  DbInstanceSimulator resumed_sim = SoakSimulator(faults);
  ResTuneAdvisor resumed_advisor = SoakAdvisor();
  const auto resumed =
      EventTuningSession(&resumed_sim, &resumed_advisor, rest).Resume();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  ExpectIdenticalTraces(*control, *resumed);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(SoakTest, AcquisitionThreadPoolSizeDoesNotChangeTheTrace) {
  // Fan-out loop counts: the 8-thread run must take the parallel path or
  // the comparison proves nothing. Shared-pool loops match in both runs.
  obs::Counter* loops =
      obs::MetricsRegistry::Global()->GetCounter("restune_pool_loops_total");
  ThreadPool serial(1);
  DbInstanceSimulator serial_sim = SoakSimulator(SoakFaults());
  ResTuneAdvisor serial_advisor = SoakAdvisor(&serial);
  const int64_t before_serial = loops->Value();
  const auto serial_run =
      EventTuningSession(&serial_sim, &serial_advisor, SoakOptions(60)).Run();
  ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();

  ThreadPool wide(8);
  DbInstanceSimulator wide_sim = SoakSimulator(SoakFaults());
  ResTuneAdvisor wide_advisor = SoakAdvisor(&wide);
  const int64_t before_wide = loops->Value();
  const auto wide_run =
      EventTuningSession(&wide_sim, &wide_advisor, SoakOptions(60)).Run();
  ASSERT_TRUE(wide_run.ok()) << wide_run.status().ToString();
  EXPECT_GT(loops->Value() - before_wide, before_wide - before_serial);
  ExpectIdenticalTraces(*serial_run, *wide_run);
}

}  // namespace
}  // namespace restune
