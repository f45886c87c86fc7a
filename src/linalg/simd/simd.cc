#include "linalg/simd/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "linalg/simd/simd_internal.h"
#include "obs/metrics.h"

namespace restune {
namespace simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier. Every body below replicates the pre-SIMD loop it replaced
// bit for bit: same iteration order, plain multiply/add (the targets are
// built without -ffast-math, so the compiler may not contract these into
// FMAs), and division where the legacy code divided. Do not "optimize"
// these — the SIMD-disabled build is contractually the historical numbers.
// ---------------------------------------------------------------------------

double DotScalar(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double NegDotAccumScalar(double init, const double* a, const double* b,
                         size_t n) {
  for (size_t i = 0; i < n; ++i) init -= a[i] * b[i];
  return init;
}

void AxpyScalar(double* acc, double w, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += w * x[i];
}

void FnmaScalar(double* acc, double w, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] -= w * x[i];
}

void SquareAccumScalar(double* acc, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += x[i] * x[i];
}

void ScaleScalar(double* x, double s, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= s;
}

void Trsm4x8PanelScalar(double* a0, double* a1, double* a2, double* a3,
                        const double* l0, const double* l1, const double* l2,
                        const double* l3, const double* y, size_t y_stride,
                        size_t k_count) {
  for (size_t k = 0; k < k_count; ++k) {
    const double* yk = y + k * y_stride;
    const double w0 = l0[k], w1 = l1[k];
    const double w2 = l2[k], w3 = l3[k];
    for (int t = 0; t < 8; ++t) {
      const double v = yk[t];
      a0[t] -= w0 * v;
      a1[t] -= w1 * v;
      a2[t] -= w2 * v;
      a3[t] -= w3 * v;
    }
  }
}

// sum_t ((a[t] - b[t * b_stride]) / ls[t])²: `b` is a contiguous row
// (stride 1) or one column of a dimension-major query block.
double ScaledSquaredDistanceScalar(const double* a, const double* b,
                                   size_t b_stride, const double* ls,
                                   size_t d) {
  double sum = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double diff = (a[i] - b[i * b_stride]) / ls[i];
    sum += diff * diff;
  }
  return sum;
}

double Matern52FromR2(double r2, double amp2) {
  const double r = std::sqrt(5.0 * r2);
  return amp2 * (1.0 + r + 5.0 * r2 / 3.0) * std::exp(-r);
}

double SqExpFromR2(double r2, double amp2) {
  return amp2 * std::exp(-0.5 * r2);
}

template <double (*kFromR2)(double, double)>
void KernelRowScalar(const double* q, const double* x, size_t x_stride,
                     size_t count, const double* ls, const double* /*inv_ls*/,
                     size_t d, double amp2, double* out) {
  for (size_t j = 0; j < count; ++j) {
    out[j] = kFromR2(
        ScaledSquaredDistanceScalar(q, x + j * x_stride, 1, ls, d), amp2);
  }
}

// The row fill and the Axpy above, one (row, query) pair at a time.
template <double (*kFromR2)(double, double)>
void WeightedSumScalar(const double* x, size_t x_stride, size_t n,
                       const double* w, const double* qt, size_t qt_stride,
                       size_t count, const double* ls,
                       const double* /*inv_ls*/, size_t d, double amp2,
                       double* out) {
  for (size_t c = 0; c < count; ++c) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double k = kFromR2(
          ScaledSquaredDistanceScalar(x + i * x_stride, qt + c, qt_stride,
                                      ls, d),
          amp2);
      acc += w[i] * k;
    }
    out[c] = acc;
  }
}

// The row fill of each training row against the stencil's rows.
template <double (*kFromR2)(double, double)>
void StencilFillScalar(const double* x, size_t x_stride, size_t n,
                       const double* q, size_t q_stride, const double* ls,
                       const double* inv_ls, size_t d, double amp2,
                       double* out, size_t out_stride) {
  for (size_t i = 0; i < n; ++i) {
    KernelRowScalar<kFromR2>(x + i * x_stride, q, q_stride, 2 * d, ls, inv_ls,
                             d, amp2, out + i * out_stride);
  }
}

constexpr internal::Ops kScalarOps = {
    DotScalar,          NegDotAccumScalar, AxpyScalar,
    FnmaScalar,         SquareAccumScalar, ScaleScalar,
    Trsm4x8PanelScalar, KernelRowScalar<Matern52FromR2>,
    KernelRowScalar<SqExpFromR2>,
    WeightedSumScalar<Matern52FromR2>,
    WeightedSumScalar<SqExpFromR2>,
    StencilFillScalar<Matern52FromR2>,
    StencilFillScalar<SqExpFromR2>,
};

// ---------------------------------------------------------------------------
// Tier resolution.
// ---------------------------------------------------------------------------

bool CpuHasAvx2Fma() {
#if defined(RESTUNE_SIMD_AVX2_COMPILED) && defined(__x86_64__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

struct Dispatch {
  const internal::Ops* ops;
  Tier tier;
};

void RecordDispatch(Tier tier) {
  // Baked-in label per tier; resolution happens once per process (plus
  // explicit test forcing), so the counter is a cheap dispatch audit trail.
  obs::MetricsRegistry::Global()
      ->GetCounter(tier == Tier::kAvx2
                       ? "restune_simd_dispatch_total{tier=\"avx2\"}"
                       : "restune_simd_dispatch_total{tier=\"scalar\"}")
      ->Add();
}

Dispatch MakeDispatch(Tier tier) {
#if defined(RESTUNE_SIMD_AVX2_COMPILED)
  if (tier == Tier::kAvx2 && CpuHasAvx2Fma()) {
    return {internal::Avx2Ops(), Tier::kAvx2};
  }
#else
  (void)tier;  // Only the scalar table exists in this build.
#endif
  return {&kScalarOps, Tier::kScalar};
}

Dispatch Resolve() {
  Tier want = Tier::kAvx2;
  const char* env = std::getenv("RESTUNE_SIMD");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) {
      want = Tier::kScalar;
    } else if (std::strcmp(env, "avx2") == 0 ||
               std::strcmp(env, "auto") == 0) {
      want = Tier::kAvx2;
    }
    // Unknown values fall through to the auto default rather than aborting:
    // a typo in an operator's environment should not take the tuner down.
  }
  return MakeDispatch(want);
}

// The installed dispatch, published with release/acquire so worker threads
// that race the first primitive call still observe a fully formed table.
// Ops tables are immutable statics, so swapping the pointer is the whole
// update.
std::atomic<const internal::Ops*> g_ops{nullptr};
std::atomic<int> g_tier{static_cast<int>(Tier::kScalar)};

const internal::Ops* InstallDispatch(Dispatch dispatch) {
  g_tier.store(static_cast<int>(dispatch.tier), std::memory_order_relaxed);
  g_ops.store(dispatch.ops, std::memory_order_release);
  RecordDispatch(dispatch.tier);
  return dispatch.ops;
}

inline const internal::Ops& Active() {
  const internal::Ops* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) ops = InstallDispatch(Resolve());
  return *ops;
}

}  // namespace

Tier ActiveTier() {
  Active();  // force resolution
  return static_cast<Tier>(g_tier.load(std::memory_order_relaxed));
}

const char* TierName(Tier tier) {
  return tier == Tier::kAvx2 ? "avx2" : "scalar";
}

bool Avx2Available() { return CpuHasAvx2Fma(); }

Tier ForceTierForTest(Tier tier) {
  InstallDispatch(MakeDispatch(tier));
  return ActiveTier();
}

void ResetTierForTest() { InstallDispatch(Resolve()); }

double Dot(const double* a, const double* b, size_t n) {
  return Active().dot(a, b, n);
}

double NegDotAccum(double init, const double* a, const double* b, size_t n) {
  return Active().neg_dot_accum(init, a, b, n);
}

void Axpy(double* acc, double w, const double* x, size_t n) {
  Active().axpy(acc, w, x, n);
}

void Fnma(double* acc, double w, const double* x, size_t n) {
  Active().fnma(acc, w, x, n);
}

void SquareAccum(double* acc, const double* x, size_t n) {
  Active().square_accum(acc, x, n);
}

void Scale(double* x, double s, size_t n) { Active().scale(x, s, n); }

void Trsm4x8Panel(double* a0, double* a1, double* a2, double* a3,
                  const double* l0, const double* l1, const double* l2,
                  const double* l3, const double* y, size_t y_stride,
                  size_t k_count) {
  Active().trsm_4x8_panel(a0, a1, a2, a3, l0, l1, l2, l3, y, y_stride,
                          k_count);
}

void Matern52Row(const double* q, const double* x, size_t x_stride,
                 size_t count, const double* ls, const double* inv_ls,
                 size_t d, double amp2, double* out) {
  Active().matern52_row(q, x, x_stride, count, ls, inv_ls, d, amp2, out);
}

void SqExpRow(const double* q, const double* x, size_t x_stride, size_t count,
              const double* ls, const double* inv_ls, size_t d, double amp2,
              double* out) {
  Active().sqexp_row(q, x, x_stride, count, ls, inv_ls, d, amp2, out);
}

void Matern52WeightedSum(const double* x, size_t x_stride, size_t n,
                         const double* w, const double* qt, size_t qt_stride,
                         size_t count, const double* ls, const double* inv_ls,
                         size_t d, double amp2, double* out) {
  Active().matern52_weighted_sum(x, x_stride, n, w, qt, qt_stride, count, ls,
                                 inv_ls, d, amp2, out);
}

void SqExpWeightedSum(const double* x, size_t x_stride, size_t n,
                      const double* w, const double* qt, size_t qt_stride,
                      size_t count, const double* ls, const double* inv_ls,
                      size_t d, double amp2, double* out) {
  Active().sqexp_weighted_sum(x, x_stride, n, w, qt, qt_stride, count, ls,
                              inv_ls, d, amp2, out);
}

void Matern52StencilFill(const double* x, size_t x_stride, size_t n,
                         const double* q, size_t q_stride, const double* ls,
                         const double* inv_ls, size_t d, double amp2,
                         double* out, size_t out_stride) {
  Active().matern52_stencil_fill(x, x_stride, n, q, q_stride, ls, inv_ls, d,
                                 amp2, out, out_stride);
}

void SqExpStencilFill(const double* x, size_t x_stride, size_t n,
                      const double* q, size_t q_stride, const double* ls,
                      const double* inv_ls, size_t d, double amp2, double* out,
                      size_t out_stride) {
  Active().sqexp_stencil_fill(x, x_stride, n, q, q_stride, ls, inv_ls, d, amp2,
                              out, out_stride);
}

}  // namespace simd
}  // namespace restune
