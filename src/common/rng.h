#ifndef RESTUNE_COMMON_RNG_H_
#define RESTUNE_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace restune {

class ThreadPool;

/// Complete serializable state of an `Rng` (the four xoshiro words plus the
/// Box-Muller cache). Checkpoint/resume captures and restores generator
/// streams through this so a resumed session continues the exact draw
/// sequence of the interrupted one.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_gaussian = false;
  double cached_gaussian = 0.0;
};

/// Deterministic pseudo-random number generator (xoshiro256++).
///
/// Every stochastic component in the library takes an explicit `Rng` (or a
/// seed) so that experiments and tests are reproducible bit-for-bit. The
/// engine is xoshiro256++, which is fast, has a 2^256-1 period and passes
/// BigCrush; quality matters because BO experiments draw millions of samples.
class Rng {
 public:
  /// Seeds the four 64-bit state words from `seed` via SplitMix64, which
  /// guarantees a non-zero, well-mixed state even for small seeds.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit output.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal deviate (Box-Muller with caching).
  double Gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Writes `count` standard normal deviates to `out`: the same values, and
  /// the same generator state afterwards (Box-Muller cache included), as
  /// `count` calls to `Gaussian()`. The uniforms are drawn serially; the
  /// Box-Muller transforms of the pairs run on `pool` (the shared pool
  /// when null), each with the scalar libm calls `Gaussian()` makes.
  void FillGaussian(double* out, std::size_t count,
                    ThreadPool* pool = nullptr);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each task or
  /// worker its own stream without correlation.
  Rng Fork();

  /// Snapshot of the full generator state (for checkpointing).
  RngState state() const;

  /// Restores a state previously captured with `state()`.
  void set_state(const RngState& state);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace restune

#endif  // RESTUNE_COMMON_RNG_H_
