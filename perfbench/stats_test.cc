// Tests for the benchmark's statistics (stats.h). Plain main, no test
// framework, so the benchmark builds from the source tree alone; run.py
// runs it before every benchmark run. Exits non-zero on the first failure.

#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // n..1
  return v;
}

bool Throws(const std::vector<double>& samples, double q) {
  try {
    (void)ValidPercentile(samples, q, "test");
  } catch (const MetricError&) {
    return true;
  }
  return false;
}

void PercentileValidity() {
  // p99 of 1000 samples has exactly 10 beyond it: valid.
  const Percentile p99 = NearestRank(Ramp(1000), 99.0);
  EXPECT(p99.value == 990.0);
  EXPECT(p99.beyond == 10);
  EXPECT(p99.valid());
  EXPECT(!Throws(Ramp(1000), 99.0));
  // One sample fewer leaves 9 beyond: a loud failure, not a number.
  EXPECT(!NearestRank(Ramp(999), 99.0).valid());
  EXPECT(Throws(Ramp(999), 99.0));
  // A median needs 20 samples; p90 needs 100.
  EXPECT(!Throws(Ramp(20), 50.0));
  EXPECT(Throws(Ramp(19), 50.0));
  EXPECT(!Throws(Ramp(100), 90.0));
  EXPECT(Throws(Ramp(99), 90.0));
  EXPECT(Throws({}, 50.0));
  EXPECT(NearestRank(Ramp(20), 50.0).value == 10.0);
  // The error names the metric and the shortfall.
  try {
    (void)ValidPercentile(Ramp(50), 99.0, "recommend_ms");
    EXPECT(false);
  } catch (const MetricError& e) {
    const std::string msg = e.what();
    EXPECT(msg.find("recommend_ms") != std::string::npos);
    EXPECT(msg.find("50 samples") != std::string::npos);
  }
}

void RefusalsCountAsErrors() {
  OpCounts ops;
  ops.Record(true);
  ops.Record(true);
  ops.Record(false);  // a refused StartSession (admission control)
  ops.Record(true);
  EXPECT(ops.attempted == 4);
  EXPECT(ops.failed == 1);
  EXPECT(ops.ErrorRate() == 0.25);
  OpCounts other;
  other.Record(false);  // a failed Recommend on another connection
  ops.Merge(other);
  EXPECT(ops.attempted == 5);
  EXPECT(ops.failed == 2);
  EXPECT(ops.ErrorRate() == 0.4);
  bool threw = false;
  try {
    (void)OpCounts().ErrorRate();
  } catch (const MetricError&) {
    threw = true;
  }
  EXPECT(threw);
}

void MedianAndSeeds() {
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  EXPECT(MixSeed(1, 2, 3) == MixSeed(1, 2, 3));
  EXPECT(MixSeed(1, 2, 3) != MixSeed(1, 2, 4));
  SplitMix r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.Uniform();
    EXPECT(u >= 0.0 && u < 1.0);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileValidity();
  perfbench::RefusalsCountAsErrors();
  perfbench::MedianAndSeeds();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d failure(s)\n",
                 perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_stats_test: ok\n");
  return 0;
}
