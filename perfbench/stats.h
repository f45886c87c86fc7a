#ifndef RESTUNE_PERFBENCH_STATS_H_
#define RESTUNE_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

/// The benchmark's own statistics: percentiles with a validity rule,
/// operation accounting and seeded workload decisions. Depends on the
/// standard library only, so stats_test.cc can pin it without the tuning
/// stack.

namespace perfbench {

/// A reported percentile needs at least this many samples strictly above
/// its rank; with fewer, the value is one or two outliers, not a tail.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Thrown when a metric cannot be reported honestly (too few samples,
/// non-finite value). The benchmark turns it into a non-zero exit.
class MetricError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Nearest-rank percentile `q` (0 < q < 100) of `samples`.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  /// Samples ranked strictly above `value`.
  size_t beyond = 0;
  bool valid() const { return beyond >= kMinSamplesBeyond; }
};
Percentile NearestRank(std::vector<double> samples, double q);

/// The percentile, or MetricError naming `what`, the sample count and the
/// shortfall when fewer than kMinSamplesBeyond samples lie beyond it.
double ValidPercentile(const std::vector<double>& samples, double q,
                       const std::string& what);

double Mean(const std::vector<double>& values);
/// Median of `values` (mean of the middle two for an even count); throws
/// MetricError on an empty input.
double Median(std::vector<double> values);

/// Attempted/failed operation accounting. A refusal (admission control,
/// a typed server error) is a failed operation like any other.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// failed ÷ attempted; MetricError when nothing was attempted.
  double ErrorRate() const;
};

/// Small deterministic generator (splitmix64) for workload decisions, so a
/// seed gives the same inputs on every platform and standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Mixes several values into one seed.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0);

}  // namespace perfbench

#endif  // RESTUNE_PERFBENCH_STATS_H_
