#include "probe.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

namespace perfbench {
namespace {

/// Keeps the probes' results observable, so the compiler cannot drop the
/// work.
std::atomic<double> sink{0.0};

/// Deterministic inputs in [0, 1): the same work on every call.
std::vector<double> Inputs(size_t n, uint64_t seed) {
  std::vector<double> v(n);
  uint64_t x = seed;
  for (double& d : v) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    d = static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  return v;
}

double Numeric() {
  constexpr size_t kPoints = 160;
  constexpr size_t kCandidates = 256;
  constexpr size_t kDim = 14;
  const std::vector<double> x = Inputs(kPoints * kDim, 1);
  const std::vector<double> c = Inputs(kCandidates * kDim, 2);
  const auto sq_exp = [](const double* a, const double* b) {
    double d2 = 0.0;
    for (size_t k = 0; k < kDim; ++k) d2 += (a[k] - b[k]) * (a[k] - b[k]);
    return std::exp(-2.0 * d2);
  };
  // Kernel matrix and its lower Cholesky factor, in place.
  std::vector<double> l(kPoints * kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      l[i * kPoints + j] = sq_exp(&x[i * kDim], &x[j * kDim]);
    }
    l[i * kPoints + i] += 1e-3;
  }
  for (size_t j = 0; j < kPoints; ++j) {
    double d = l[j * kPoints + j];
    for (size_t k = 0; k < j; ++k) d -= l[j * kPoints + k] * l[j * kPoints + k];
    d = std::sqrt(d);
    l[j * kPoints + j] = d;
    for (size_t i = j + 1; i < kPoints; ++i) {
      double s = l[i * kPoints + j];
      for (size_t k = 0; k < j; ++k) s -= l[i * kPoints + k] * l[j * kPoints + k];
      l[i * kPoints + j] = s / d;
    }
  }
  // Each candidate's cross-covariance, solved against the factor.
  double total = 0.0;
  std::vector<double> v(kPoints);
  for (size_t m = 0; m < kCandidates; ++m) {
    for (size_t i = 0; i < kPoints; ++i) {
      double s = sq_exp(&c[m * kDim], &x[i * kDim]);
      for (size_t k = 0; k < i; ++k) s -= l[i * kPoints + k] * v[k];
      v[i] = s / l[i * kPoints + i];
      total += v[i] * v[i];
    }
  }
  return total;
}

double Text() {
  constexpr size_t kValues = 4000;
  const std::vector<double> values = Inputs(kValues, 3);
  std::ostringstream out;
  out.precision(17);
  for (double d : values) out << d * 1e3 << ' ';
  std::istringstream in(out.str());
  double total = 0.0;
  double d = 0.0;
  while (in >> d) total += d;
  return total;
}

}  // namespace

double ProbeMs(Probe probe) {
  const auto start = std::chrono::steady_clock::now();
  const double result = probe == Probe::kNumeric ? Numeric() : Text();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  sink.store(result, std::memory_order_relaxed);
  return ms;
}

const char* ProbeName(Probe probe) {
  return probe == Probe::kNumeric ? "numeric" : "text";
}

}  // namespace perfbench
