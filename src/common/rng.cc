#include "common/rng.h"

#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

namespace restune {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// The Box-Muller pair of two uniforms, u1 in (0, 1). `Gaussian()` and
/// `FillGaussian()` both transform through here, so they agree bit for bit.
void BoxMuller(double u1, double u2, double* first, double* second) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  *second = r * std::sin(theta);
  *first = r * std::cos(theta);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t v;
  do {
    v = NextUint64();
  } while (v >= limit);
  return v % n;
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  const double u2 = Uniform();
  double first;
  BoxMuller(u1, u2, &first, &cached_gaussian_);
  has_cached_gaussian_ = true;
  return first;
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

void Rng::FillGaussian(double* out, std::size_t count, ThreadPool* pool) {
  if (count == 0) return;
  std::size_t begin = 0;
  if (has_cached_gaussian_) {
    out[begin++] = cached_gaussian_;
    has_cached_gaussian_ = false;
  }
  // The pairs' uniforms, in the order successive Gaussian() calls draw
  // them. Each whole pair's two are drawn into the two slots its deviates
  // go to and transformed there; an odd remainder's last pair has one slot,
  // so its uniforms stay apart and its second deviate goes to the cache
  // slot, as Gaussian() leaves it: live after an odd remainder, spent after
  // an even one (state() records the slot either way).
  double* const slots = out + begin;
  const std::size_t whole = (count - begin) / 2;
  const bool odd = (count - begin) % 2 != 0;
  const auto draw_pair = [this](double* u1, double* u2) {
    do {
      *u1 = Uniform();
    } while (*u1 <= 0.0);
    *u2 = Uniform();
  };
  for (std::size_t p = 0; p < whole; ++p) {
    draw_pair(&slots[2 * p], &slots[2 * p + 1]);
  }
  double tail_u1 = 0.0;
  double tail_u2 = 0.0;
  if (odd) draw_pair(&tail_u1, &tail_u2);
  ResolvePool(pool)->ParallelForRanges(whole, [&](std::size_t lo,
                                                  std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      double* pair = slots + 2 * p;
      BoxMuller(pair[0], pair[1], &pair[0], &pair[1]);
    }
  });
  if (odd) {
    BoxMuller(tail_u1, tail_u2, &out[count - 1], &cached_gaussian_);
  } else if (whole > 0) {
    cached_gaussian_ = out[count - 1];
  }
  has_cached_gaussian_ = odd;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

RngState Rng::state() const {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.has_cached_gaussian = has_cached_gaussian_;
  st.cached_gaussian = cached_gaussian_;
  return st;
}

void Rng::set_state(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

}  // namespace restune
