// The repository benchmark. Usage:
//
//   restune_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--tmp-dir DIR]
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer
// metric (README.md has both tables). Human-readable lines, with sample
// counts, come first; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any failed check, failed
// operation or invalid percentile exits non-zero.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "common/logging.h"

namespace perfbench {
namespace {

/// Set-ups per measured run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// Rounds the measured pass drives: --seconds of rounds at the workload's
/// nominal rate.
uint64_t MeasuredRounds(const WorkloadSpec& spec, double seconds) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(seconds * spec.nominal_rounds_per_s)));
}

/// Per round, the reference probe time over the median of the probes
/// taken after it and its two neighbours on each side: how much faster
/// than the reference the host ran just then.
std::vector<double> RoundScales(const std::vector<double>& probe_ms) {
  constexpr size_t kReach = 2;
  std::vector<double> scales(probe_ms.size());
  for (size_t r = 0; r < probe_ms.size(); ++r) {
    const auto first = probe_ms.begin() + static_cast<std::ptrdiff_t>(
                                              r >= kReach ? r - kReach : 0);
    const auto last = probe_ms.begin() + static_cast<std::ptrdiff_t>(std::min(
                                             probe_ms.size(), r + kReach + 1));
    scales[r] = kReferenceProbeMs / Median({first, last});
  }
  return scales;
}

/// Each time of `ms` times the scale of its round.
std::vector<double> Scaled(const std::vector<double>& ms,
                           const std::vector<uint32_t>& round,
                           const std::vector<double>& scales) {
  if (round.size() != ms.size()) throw MetricError("a call has no round");
  std::vector<double> scaled(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    scaled[i] = ms[i] * scales.at(round[i]);
  }
  return scaled;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir = ".bench_build/tmp";
};

int Usage() {
  std::string names;
  for (const std::string& n : WorkloadNames()) names += " " + n;
  std::fprintf(stderr,
               "usage: restune_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tmp-dir DIR]\nworkloads:%s\n",
               names.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--tmp-dir") {
      args->tmp_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

void PrintTiming(const char* what, const std::vector<double>& ms, double tail_q) {
  std::printf("%-10s p50 %.4f ms, p%g %.4f ms (n=%zu)\n", what,
              ValidPercentile(ms, 50.0, what), tail_q,
              ValidPercentile(ms, tail_q, what), ms.size());
}

/// Mean over scored sessions of best feasible res ÷ default res.
double BestResRatio(const WorkloadSpec& spec,
                    const std::vector<SessionOutcome>& sessions,
                    std::vector<std::string>* problems) {
  std::vector<double> ratios;
  size_t quality_seen = 0;
  for (const SessionOutcome& s : sessions) {
    if (spec.quality_sessions > 0) {
      if (s.index >= spec.quality_sessions) continue;
      ++quality_seen;
      if (!s.complete) {
        problems->push_back("quality session " + std::to_string(s.index) +
                            " did not complete");
        continue;
      }
    } else if (!s.complete) {
      continue;
    }
    ratios.push_back(s.server_best_res / s.default_res);
  }
  if (spec.quality_sessions > 0 && quality_seen != spec.quality_sessions) {
    problems->push_back("quality set has " + std::to_string(quality_seen) +
                        " sessions, expected " +
                        std::to_string(spec.quality_sessions));
  }
  if (ratios.empty()) throw MetricError("no completed session to score");
  std::printf("best_res_ratio over %zu sessions\n", ratios.size());
  return Mean(ratios);
}

/// The final checkpoint file must restore into a fresh server that hands
/// back the same outstanding recommendation.
void CheckCheckpointReload(Environment* env, std::vector<std::string>* problems) {
  Blueprint bp =
      MakeBlueprint(env->spec(), env->knowledge(), env->seed(), ~uint64_t{0});
  ResTuneServer& server = env->server();
  const restune::Result<uint64_t> id = server.StartSession(bp.submission);
  if (!id.ok()) {
    problems->push_back("reload check: " + id.status().ToString());
    return;
  }
  const restune::Result<KnobRecommendation> rec = server.Recommend(*id);
  const restune::Status saved = server.SaveCheckpointFile(env->checkpoint_path());
  if (!rec.ok() || !saved.ok()) {
    problems->push_back("reload check: recommend or save failed");
    return;
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(env->checkpoint_path(), ec);
  ResTuneServer fresh(MakeServerOptions(env->spec(), ""));
  const restune::Status loaded = fresh.LoadCheckpointFile(env->checkpoint_path());
  if (!loaded.ok()) {
    problems->push_back("reload check: " + loaded.ToString());
    return;
  }
  const restune::Result<KnobRecommendation> again = fresh.Recommend(*id);
  const bool same = again.ok() && again->iteration == rec->iteration &&
                    BitwiseEqual(again->theta, rec->theta);
  if (!same) {
    problems->push_back(
        "reload check: restored server returned a different recommendation");
  }
  std::printf("checkpoint reload: %s (%ju bytes, %zu finished sessions)\n",
              same ? "same outstanding recommendation" : "MISMATCH",
              static_cast<uintmax_t>(ec ? 0 : bytes), fresh.finished_sessions());
  (void)server.FinishSession(*id);
}

std::vector<Metric> RunMeasured(const WorkloadSpec& spec, const Args& args,
                                std::vector<std::string>* problems,
                                OpCounts* ops) {
  std::vector<double> setups;
  std::unique_ptr<Environment> env;
  for (int r = 0; r < kSetupRepeats; ++r) {
    env.reset();
    env = Environment::Create(spec, args.seed, Transport::kWire, args.tmp_dir);
    setups.push_back(env->setup_s());
  }
  Samples run = env->RunRounds(MeasuredRounds(spec, args.seconds));
  const double elapsed =
      1e-3 * Mean(run.round_ms) * static_cast<double>(run.round_ms.size());
  const double heap_mb = HeapMb();
  Samples drained = env->Drain(/*complete_quality=*/true);
  if (spec.checkpoint_period > 0) CheckCheckpointReload(env.get(), problems);

  for (const Samples* s : {&run, &drained}) {
    CheckSessions(*s, problems);
    ops->Merge(s->ops);
  }
  std::vector<SessionOutcome> sessions = run.sessions;
  sessions.insert(sessions.end(), drained.sessions.begin(),
                  drained.sessions.end());

  std::printf("setup_s    %.4f (median of %d:", Median(setups), kSetupRepeats);
  for (double s : setups) std::printf(" %.4f", s);
  std::printf(")\nrounds     %ju in %.3f s, %zu sessions ended\n",
              static_cast<uintmax_t>(run.rounds), elapsed, sessions.size());
  std::printf("per second:");
  for (uint64_t r : run.rounds_by_second) {
    std::printf(" %ju", static_cast<uintmax_t>(r));
  }
  std::printf(" rounds\n");
  PrintTiming("recommend", run.recommend_ms, spec.tail_q);
  PrintTiming("report", run.report_ms, spec.tail_q);
  // Times at the reference machine's speed: each round's times scaled by
  // the probes around it, set-up by the run's median probe.
  const std::vector<double> scales = RoundScales(run.probe_ms);
  const std::vector<double> recommend_ms =
      Scaled(run.recommend_ms, run.recommend_round, scales);
  const std::vector<double> report_ms =
      Scaled(run.report_ms, run.report_round, scales);
  std::vector<uint32_t> each_round(run.round_ms.size());
  for (size_t r = 0; r < each_round.size(); ++r) {
    each_round[r] = static_cast<uint32_t>(r);
  }
  const std::vector<double> round_ms = Scaled(run.round_ms, each_round, scales);
  const double scale = kReferenceProbeMs / Median(run.probe_ms);
  std::printf(
      "probe      %s p50 %.4f ms (n=%zu), reference %.4f ms; scaled to it:\n",
      ProbeName(spec.probe), Median(run.probe_ms), run.probe_ms.size(),
      kReferenceProbeMs);
  PrintTiming("recommend", recommend_ms, spec.tail_q);
  PrintTiming("report", report_ms, spec.tail_q);
  std::printf("error_rate %.6f (%ju of %ju operations)\n", ops->ErrorRate(),
              static_cast<uintmax_t>(ops->failed),
              static_cast<uintmax_t>(ops->attempted));
  const double ratio = BestResRatio(spec, sessions, problems);

  return {
      {"setup_s", scale * Median(setups), "s"},
      {"rounds_per_s", 1e3 / Mean(round_ms), "1/s"},
      {"recommend_p50_ms", ValidPercentile(recommend_ms, 50.0, "recommend"),
       "ms"},
      {"recommend_tail_ms",
       ValidPercentile(recommend_ms, spec.tail_q, "recommend"), "ms"},
      {"report_p50_ms", ValidPercentile(report_ms, 50.0, "report"), "ms"},
      {"report_tail_ms", ValidPercentile(report_ms, spec.tail_q, "report"),
       "ms"},
      {"best_res_ratio", ratio, "ratio"},
      {"heap_mb", heap_mb, "MiB"},
  };
}

void PrintResult(bool correct, const OpCounts& ops,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ops.attempted) +
                     ", \"failed\": " + std::to_string(ops.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw MetricError(m.name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  restune::Logger::SetThreshold(restune::LogLevel::kError);
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) return Usage();
  args.tmp_dir += "/" + std::to_string(getpid());
  std::filesystem::create_directories(args.tmp_dir);

  std::printf("workload %s seed %ju seconds %g trace %d\n", spec->name.c_str(),
              static_cast<uintmax_t>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::vector<std::string> problems;
  OpCounts ops;
  int status = 0;
  try {
    const std::vector<Metric> metrics =
        args.trace ? RunTraced(*spec, args.seed, args.seconds, args.tmp_dir,
                               &problems, &ops)
                   : RunMeasured(*spec, args, &problems, &ops);
    for (const std::string& p : problems) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    }
    std::fflush(stdout);
    PrintResult(problems.empty(), ops, metrics);
    status = problems.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "restune_perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.tmp_dir, ec);
  return status;
}
