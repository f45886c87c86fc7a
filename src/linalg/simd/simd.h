#ifndef RESTUNE_LINALG_SIMD_SIMD_H_
#define RESTUNE_LINALG_SIMD_SIMD_H_

#include <cstddef>

/// Runtime-dispatched SIMD primitives for the dense-linear-algebra hot
/// loops (Gram/cross-covariance fills, blocked triangular solves, batch
/// posterior accumulation).
///
/// Dispatch tiers and their determinism domains:
///
///  * kScalar — reproduces the pre-SIMD arithmetic bit for bit: the same
///    operation order, plain multiply/add (no FMA contraction), division
///    where the legacy loops divided. A build with -DRESTUNE_SIMD=OFF, a
///    CPU without AVX2/FMA, and RESTUNE_SIMD=scalar in the environment all
///    land here and produce the historical numbers.
///  * kAvx2 — 4-wide AVX2/FMA bodies. Results may differ from the scalar
///    tier by rounding (the equivalence suite bounds the gap at 1e-12) but
///    are a pure function of the operands: remainder elements are finished
///    with std::fma so an element's value does not depend on whether a
///    pool-size-dependent range boundary put it in the vector body or the
///    tail. Serial and parallel runs therefore stay bitwise identical
///    within the tier.
///
/// The tier is resolved once per process from compile-time support,
/// __builtin_cpu_supports, and the RESTUNE_SIMD environment variable
/// ("auto" (default) | "avx2" | "scalar"); the choice is recorded in the
/// restune_simd_dispatch_total{tier=...} counter. Raw intrinsics are
/// confined to src/linalg/simd/ (enforced by tools/restune_lint.py).
///
/// All pointer arguments may be unaligned; every AVX2 body uses unaligned
/// loads, so callers never need padded or over-aligned rows (Matrix rows
/// start 64-byte aligned only when the column count keeps them so).
namespace restune {
namespace simd {

enum class Tier {
  kScalar = 0,
  kAvx2 = 1,
};

/// The tier every primitive below currently dispatches to.
Tier ActiveTier();

/// Human-readable tier name ("scalar", "avx2") for logs and metrics.
const char* TierName(Tier tier);

/// True when the AVX2 translation unit is linked into this binary AND the
/// CPU reports AVX2+FMA — i.e. Tier::kAvx2 is reachable.
bool Avx2Available();

/// Test hook: pins dispatch to `tier` (kAvx2 falls back to kScalar when
/// unavailable; the return value is the tier actually installed). Not
/// thread-safe; call before spawning parallel work.
Tier ForceTierForTest(Tier tier);

/// Re-runs the normal resolution (CPU + environment), undoing
/// ForceTierForTest.
void ResetTierForTest();

/// sum_i a[i] * b[i]. Scalar tier: sequential `sum += a[i] * b[i]`.
double Dot(const double* a, const double* b, size_t n);

/// init - sum_i a[i] * b[i]. Scalar tier: sequential `init -= a[i]*b[i]`
/// — the inner reduction of Cholesky factor/forward-substitution loops.
double NegDotAccum(double init, const double* a, const double* b, size_t n);

/// acc[i] += w * x[i].
void Axpy(double* acc, double w, const double* x, size_t n);

/// acc[i] -= w * x[i].
void Fnma(double* acc, double w, const double* x, size_t n);

/// acc[i] += x[i] * x[i].
void SquareAccum(double* acc, const double* x, size_t n);

/// x[i] *= s.
void Scale(double* x, double s, size_t n);

/// The 4-row x 8-column register tile of the blocked triangular solve:
///   a{r}[t] -= l{r}[k] * y[k * y_stride + t]   for k in [0, k_count)
/// with k ascending per element. `a0..a3` are the 8-wide accumulators,
/// `l0..l3` the four L rows, `y` the first solved row offset to the tile's
/// column. Keeping the whole k-loop inside one dispatched call amortizes
/// the indirect call and keeps eight FMA accumulators live in the AVX2
/// tier.
void Trsm4x8Panel(double* a0, double* a1, double* a2, double* a3,
                  const double* l0, const double* l1, const double* l2,
                  const double* l3, const double* y, size_t y_stride,
                  size_t k_count);

/// Matérn-5/2 row fill: out[j] = amp2 * (1 + r + 5 r²/3) e^{-r} with
/// r = sqrt(5 * sum_t ((q[t] - x_j[t]) / ls[t])²) and x_j = x + j*x_stride,
/// for j in [0, count). The scalar tier replicates the legacy per-pair
/// evaluation (division by `ls`, std::exp); the AVX2 tier multiplies by
/// `inv_ls` and uses a vector exp, so callers pass both arrays.
void Matern52Row(const double* q, const double* x, size_t x_stride,
                 size_t count, const double* ls, const double* inv_ls,
                 size_t d, double amp2, double* out);

/// Squared-exponential row fill: out[j] = amp2 * e^{-r2/2} with the same
/// scaled squared distance and argument conventions as Matern52Row.
void SqExpRow(const double* q, const double* x, size_t x_stride, size_t count,
              const double* ls, const double* inv_ls, size_t d, double amp2,
              double* out);

/// Fused Matérn-5/2 weighted cross sum, the posterior-mean pass of batch
/// GP prediction:
///   out[c] = sum_i w[i] * k(x_i, q_c)   for c in [0, count),
/// with i ascending over the n training rows x_i = x + i*x_stride. Queries
/// arrive dimension-major: q_c[t] = qt[t*qt_stride + c]. No n×count
/// cross-covariance block is formed.
///
/// Bits: out[c] equals, in each tier, a Matern52Row fill of k(x_i, ·)
/// followed by Axpy(out, w[i], row) for each i from a zeroed `out`. The
/// scalar tier runs that composition per pair (division by `ls`,
/// std::exp, plain `+=`). The AVX2 tier puts queries in the lanes, and
/// each lane repeats the per-pair row fill's operations in the same order:
/// the (x_i[t] - q_c[t]) * inv_ls[t] differences; four partial sums, one
/// per t mod 4, grown by FMA; the (s0 + s2) + (s1 + s3) combine the row
/// fill's horizontal sum makes; the FMA tail over the last d mod 4
/// dimensions; the same vector exp; then fma(w[i], k, acc). Lanes never
/// mix, and the last partial group of queries loads its absent lanes as
/// zeros through a mask, so a column's result does not depend on `count`
/// or on where a caller splits the queries.
void Matern52WeightedSum(const double* x, size_t x_stride, size_t n,
                         const double* w, const double* qt, size_t qt_stride,
                         size_t count, const double* ls, const double* inv_ls,
                         size_t d, double amp2, double* out);

/// Squared-exponential counterpart of Matern52WeightedSum; its bits equal
/// SqExpRow followed by Axpy the same way.
void SqExpWeightedSum(const double* x, size_t x_stride, size_t n,
                      const double* w, const double* qt, size_t qt_stride,
                      size_t count, const double* ls, const double* inv_ls,
                      size_t d, double amp2, double* out);

/// Matérn-5/2 cross-covariance of a coordinate stencil, the query block of
/// one acquisition refinement pass:
///   out[i*out_stride + r] = k(x_i, q_r)   for i in [0, n), r in [0, 2d),
/// with training rows x_i = x + i*x_stride and query rows
/// q_r = q + r*q_stride. The 2d query rows must form a coordinate stencil
/// (d >= 2): rows 2k and 2k+1 equal one common centre bit for bit in every
/// column except column k. That is the row order the optimizer's
/// refinement builds, with or without clamping or a trust-region
/// projection; the caller checks it, the fill does not.
///
/// Bits: out[i*out_stride + r] equals, in each tier, what Matern52Row
/// writes for the pair (q = x_i, row q_r). The scalar tier runs that row
/// fill on the given rows. The AVX2 tier puts four training rows in the
/// lanes and shares the centre's distance work among the 2d rows: it
/// computes the centre's scaled differences (x_i[t] - c[t]) * inv_ls[t]
/// and the prefixes of the row fill's four FMA chains (one per t mod 4)
/// once per four training rows; for row r it redoes only the chain that
/// holds column k from k onward, then the (s0 + s2) + (s1 + s3) combine,
/// the FMA tail over the last d mod 4 dimensions and the same transform.
/// A row's values therefore do not depend on `n` or on where a caller
/// splits the training rows.
void Matern52StencilFill(const double* x, size_t x_stride, size_t n,
                         const double* q, size_t q_stride, const double* ls,
                         const double* inv_ls, size_t d, double amp2,
                         double* out, size_t out_stride);

/// Squared-exponential counterpart of Matern52StencilFill; its bits equal
/// SqExpRow's per pair the same way.
void SqExpStencilFill(const double* x, size_t x_stride, size_t n,
                      const double* q, size_t q_stride, const double* ls,
                      const double* inv_ls, size_t d, double amp2, double* out,
                      size_t out_stride);

}  // namespace simd
}  // namespace restune

#endif  // RESTUNE_LINALG_SIMD_SIMD_H_
