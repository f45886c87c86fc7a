#ifndef RESTUNE_PERFBENCH_PROBE_H_
#define RESTUNE_PERFBENCH_PROBE_H_

/// Host-speed probes: fixed work of the benchmark's own, built from the
/// standard library alone, that the measured run times after every round.
/// On a shared host the same work runs up to 1.5× slower while other
/// tenants load the physical cores. A probe's time follows that speed, and
/// no change to the program under test moves it.

namespace perfbench {

enum class Probe {
  /// Dense floating point: a kernel matrix, its Cholesky factor and a
  /// block of triangular solves, the shape of a GP fit and a CEI sweep.
  kNumeric,
  /// Text: doubles written at precision 17 and parsed back, the shape of
  /// a checkpoint.
  kText,
};

/// Milliseconds one run of `probe` takes.
double ProbeMs(Probe probe);

/// The probe time the measured run scales its times to. Both probes take
/// about this long on the reference machine, a 4-vCPU x86-64 VM with AVX2,
/// in a Release build.
inline constexpr double kReferenceProbeMs = 4.0;

const char* ProbeName(Probe probe);

}  // namespace perfbench

#endif  // RESTUNE_PERFBENCH_PROBE_H_
