#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || !(q > 0.0 && q < 100.0)) return p;
  std::sort(samples.begin(), samples.end());
  // 1-based rank ceil(q/100 · n); the small epsilon keeps exact products
  // such as 0.99 · 1000 from rounding up to the next rank.
  size_t rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(samples.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

double ValidPercentile(const std::vector<double>& samples, double q,
                       const std::string& what) {
  const Percentile p = NearestRank(samples, q);
  if (!p.valid()) {
    throw MetricError(what + ": p" + std::to_string(q) + " over " +
                      std::to_string(p.samples) + " samples has " +
                      std::to_string(p.beyond) + " beyond it, needs " +
                      std::to_string(kMinSamplesBeyond));
  }
  return p.value;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) throw MetricError("median of no values");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double OpCounts::ErrorRate() const {
  if (attempted == 0) throw MetricError("error rate of zero operations");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  SplitMix mix(a);
  const uint64_t x = mix.Next() ^ b;
  SplitMix mix2(x);
  return SplitMix(mix2.Next() ^ c).Next();
}

}  // namespace perfbench
