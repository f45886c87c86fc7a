// AVX2/FMA tier of the SIMD dispatch layer. This translation unit is the
// only place outside tests where raw intrinsics are permitted (enforced by
// tools/restune_lint.py); it is compiled with -mavx2 -mfma and its entry
// points must only be *called* after __builtin_cpu_supports confirmed both
// features (simd.cc guards this).
//
// Determinism rules for every body here:
//  * remainder elements use std::fma with the same operand signs as the
//    vector lanes, so an element's value never depends on whether a caller's
//    range boundary put it in the body or the tail;
//  * reductions combine partial sums in one fixed order per length.

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "linalg/simd/simd_internal.h"

#if !defined(RESTUNE_SIMD_AVX2_COMPILED)
#error "simd_avx2.cc must be compiled with RESTUNE_SIMD_AVX2_COMPILED"
#endif

namespace restune {
namespace simd {
namespace internal {
namespace {

inline double HorizontalSum(__m256d v) {
  // Fixed combine order: (lane0 + lane1) + (lane2 + lane3).
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    i += 4;
  }
  double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) sum = std::fma(a[i], b[i], sum);
  return sum;
}

double NegDotAccumAvx2(double init, const double* a, const double* b,
                       size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    i += 4;
  }
  double result = init - HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) result = std::fma(-a[i], b[i], result);
  return result;
}

void AxpyAvx2(double* acc, double w, const double* x, size_t n) {
  const __m256d vw = _mm256_set1_pd(w);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        acc + i,
        _mm256_fmadd_pd(vw, _mm256_loadu_pd(x + i), _mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) acc[i] = std::fma(w, x[i], acc[i]);
}

void FnmaAvx2(double* acc, double w, const double* x, size_t n) {
  const __m256d vw = _mm256_set1_pd(w);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(acc + i,
                     _mm256_fnmadd_pd(vw, _mm256_loadu_pd(x + i),
                                      _mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) acc[i] = std::fma(-w, x[i], acc[i]);
}

void SquareAccumAvx2(double* acc, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(acc + i,
                     _mm256_fmadd_pd(v, v, _mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) acc[i] = std::fma(x[i], x[i], acc[i]);
}

void ScaleAvx2(double* x, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

void Trsm4x8PanelAvx2(double* a0, double* a1, double* a2, double* a3,
                      const double* l0, const double* l1, const double* l2,
                      const double* l3, const double* y, size_t y_stride,
                      size_t k_count) {
  __m256d a0lo = _mm256_loadu_pd(a0), a0hi = _mm256_loadu_pd(a0 + 4);
  __m256d a1lo = _mm256_loadu_pd(a1), a1hi = _mm256_loadu_pd(a1 + 4);
  __m256d a2lo = _mm256_loadu_pd(a2), a2hi = _mm256_loadu_pd(a2 + 4);
  __m256d a3lo = _mm256_loadu_pd(a3), a3hi = _mm256_loadu_pd(a3 + 4);
  const double* yk = y;
  for (size_t k = 0; k < k_count; ++k, yk += y_stride) {
    const __m256d vlo = _mm256_loadu_pd(yk);
    const __m256d vhi = _mm256_loadu_pd(yk + 4);
    const __m256d w0 = _mm256_set1_pd(l0[k]);
    a0lo = _mm256_fnmadd_pd(w0, vlo, a0lo);
    a0hi = _mm256_fnmadd_pd(w0, vhi, a0hi);
    const __m256d w1 = _mm256_set1_pd(l1[k]);
    a1lo = _mm256_fnmadd_pd(w1, vlo, a1lo);
    a1hi = _mm256_fnmadd_pd(w1, vhi, a1hi);
    const __m256d w2 = _mm256_set1_pd(l2[k]);
    a2lo = _mm256_fnmadd_pd(w2, vlo, a2lo);
    a2hi = _mm256_fnmadd_pd(w2, vhi, a2hi);
    const __m256d w3 = _mm256_set1_pd(l3[k]);
    a3lo = _mm256_fnmadd_pd(w3, vlo, a3lo);
    a3hi = _mm256_fnmadd_pd(w3, vhi, a3hi);
  }
  _mm256_storeu_pd(a0, a0lo);
  _mm256_storeu_pd(a0 + 4, a0hi);
  _mm256_storeu_pd(a1, a1lo);
  _mm256_storeu_pd(a1 + 4, a1hi);
  _mm256_storeu_pd(a2, a2lo);
  _mm256_storeu_pd(a2 + 4, a2hi);
  _mm256_storeu_pd(a3, a3lo);
  _mm256_storeu_pd(a3 + 4, a3hi);
}

// exp(x) on 4 lanes, Cephes-style: range reduction x = n ln2 + r with a
// Cody-Waite split, a rational minimax approximation of exp(r) on
// [-ln2/2, ln2/2], and exponent reassembly. ~1 ulp over the domain the
// kernels use (x <= 0); arguments below the IEEE underflow threshold flush
// to +0 exactly like std::exp.
inline __m256d ExpPd(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d ln2_hi = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d ln2_lo = _mm256_set1_pd(1.42860682030941723212e-6);
  const __m256d underflow = _mm256_set1_pd(-708.396418532264106224);

  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, ln2_hi, x);
  r = _mm256_fnmadd_pd(n, ln2_lo, r);
  const __m256d rr = _mm256_mul_pd(r, r);

  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(9.99999999999999999910e-1));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.0));
  __m256d e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  e = _mm256_fmadd_pd(_mm256_set1_pd(2.0), e, _mm256_set1_pd(1.0));

  const __m256i n64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
  const __m256i pow2 = _mm256_slli_epi64(
      _mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  e = _mm256_mul_pd(e, _mm256_castsi256_pd(pow2));
  return _mm256_and_pd(e, _mm256_cmp_pd(x, underflow, _CMP_GE_OQ));
}

// Scaled squared distance of one (query, row) pair, 4-wide over the
// dimensions. Lengthscales arrive pre-inverted so the inner loop is pure
// multiply-add; the dimension tail uses std::fma, keeping r2 a pure
// function of (q, row, inv_ls, d).
inline double ScaledSquaredDistanceAvx2(const double* q, const double* xr,
                                        const double* inv_ls, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t t = 0;
  for (; t + 4 <= d; t += 4) {
    const __m256d diff = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(xr + t)),
        _mm256_loadu_pd(inv_ls + t));
    acc = _mm256_fmadd_pd(diff, diff, acc);
  }
  double sum = HorizontalSum(acc);
  for (; t < d; ++t) {
    const double diff = (q[t] - xr[t]) * inv_ls[t];
    sum = std::fma(diff, diff, sum);
  }
  return sum;
}

// Shared row-fill skeleton: compute 4 scaled squared distances, transform
// them with `transform` (a 4-lane functor), and store. The final partial
// group is padded with zeros and transformed with the same vector code, so
// tail elements are bitwise identical to body elements.
template <typename TransformFn>
inline void KernelRowAvx2(const double* q, const double* x, size_t x_stride,
                          size_t count, const double* inv_ls, size_t d,
                          double* out, TransformFn transform) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m256d r2 = _mm256_setr_pd(
        ScaledSquaredDistanceAvx2(q, x + j * x_stride, inv_ls, d),
        ScaledSquaredDistanceAvx2(q, x + (j + 1) * x_stride, inv_ls, d),
        ScaledSquaredDistanceAvx2(q, x + (j + 2) * x_stride, inv_ls, d),
        ScaledSquaredDistanceAvx2(q, x + (j + 3) * x_stride, inv_ls, d));
    _mm256_storeu_pd(out + j, transform(r2));
  }
  if (j < count) {
    double r2_tail[4] = {0.0, 0.0, 0.0, 0.0};
    double out_tail[4];
    for (size_t t = 0; j + t < count; ++t) {
      r2_tail[t] =
          ScaledSquaredDistanceAvx2(q, x + (j + t) * x_stride, inv_ls, d);
    }
    _mm256_storeu_pd(out_tail, transform(_mm256_loadu_pd(r2_tail)));
    for (size_t t = 0; j + t < count; ++t) out[j + t] = out_tail[t];
  }
}

// Query-major weighted cross sum over one group of up to eight queries
// (two 4-lane halves): acc[c] = sum_i w[i] * k(x_i, q_c). Each lane
// repeats ScaledSquaredDistanceAvx2's operations for its (row, query)
// pair: four partial sums s_{t mod 4} grown by FMA over the 4-aligned
// dimensions, the (s0 + s2) + (s1 + s3) combine of HorizontalSum, then the
// FMA tail. Then the row fill's transform and AxpyAvx2's fma(w, k, acc).
// With kMasked, lanes whose mask is clear load 0.0 instead of reading
// past the caller's queries, and are not stored. Without kHigh the group
// is the low half alone (at most four queries).
template <bool kMasked, bool kHigh, typename TransformFn>
inline void WeightedSumGroupAvx2(const double* x, size_t x_stride, size_t n,
                                 const double* w, const double* qt,
                                 size_t qt_stride, const double* inv_ls,
                                 size_t d, __m256i mask_lo, __m256i mask_hi,
                                 double* out, TransformFn transform) {
  const auto load = [](const double* p, __m256i mask) {
    if constexpr (kMasked) {
      return _mm256_maskload_pd(p, mask);
    } else {
      (void)mask;
      return _mm256_loadu_pd(p);
    }
  };
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  const size_t d4 = d & ~size_t{3};
  for (size_t i = 0; i < n; ++i) {
    const double* xi = x + i * x_stride;
    __m256d s_lo[4], s_hi[4];
    for (int k = 0; k < 4; ++k) s_lo[k] = s_hi[k] = _mm256_setzero_pd();
    // One dimension for each half: the scaled difference, squared into
    // `sum_lo` and `sum_hi` by FMA.
    const auto step = [&](size_t t, __m256d* sum_lo, __m256d* sum_hi) {
      const __m256d xt = _mm256_set1_pd(xi[t]);
      const __m256d il = _mm256_set1_pd(inv_ls[t]);
      const double* row = qt + t * qt_stride;
      const __m256d dlo =
          _mm256_mul_pd(_mm256_sub_pd(xt, load(row, mask_lo)), il);
      *sum_lo = _mm256_fmadd_pd(dlo, dlo, *sum_lo);
      if constexpr (kHigh) {
        const __m256d dhi =
            _mm256_mul_pd(_mm256_sub_pd(xt, load(row + 4, mask_hi)), il);
        *sum_hi = _mm256_fmadd_pd(dhi, dhi, *sum_hi);
      }
    };
    size_t t = 0;
    for (; t < d4; t += 4) {
      for (int k = 0; k < 4; ++k) step(t + k, &s_lo[k], &s_hi[k]);
    }
    __m256d r2_lo = _mm256_add_pd(_mm256_add_pd(s_lo[0], s_lo[2]),
                                  _mm256_add_pd(s_lo[1], s_lo[3]));
    __m256d r2_hi = _mm256_add_pd(_mm256_add_pd(s_hi[0], s_hi[2]),
                                  _mm256_add_pd(s_hi[1], s_hi[3]));
    for (; t < d; ++t) step(t, &r2_lo, &r2_hi);
    const __m256d wi = _mm256_set1_pd(w[i]);
    acc_lo = _mm256_fmadd_pd(wi, transform(r2_lo), acc_lo);
    if constexpr (kHigh) {
      acc_hi = _mm256_fmadd_pd(wi, transform(r2_hi), acc_hi);
    }
  }
  if constexpr (kMasked) {
    _mm256_maskstore_pd(out, mask_lo, acc_lo);
    if constexpr (kHigh) _mm256_maskstore_pd(out + 4, mask_hi, acc_hi);
  } else {
    _mm256_storeu_pd(out, acc_lo);
    if constexpr (kHigh) _mm256_storeu_pd(out + 4, acc_hi);
  }
}

// Full groups of eight queries, then one masked group of one or two
// halves for the rest.
template <typename TransformFn>
inline void WeightedSumAvx2(const double* x, size_t x_stride, size_t n,
                            const double* w, const double* qt,
                            size_t qt_stride, size_t count,
                            const double* inv_ls, size_t d, double* out,
                            TransformFn transform) {
  const __m256i all = _mm256_set1_epi64x(-1);
  size_t c = 0;
  for (; c + 8 <= count; c += 8) {
    WeightedSumGroupAvx2<false, true>(x, x_stride, n, w, qt + c, qt_stride,
                                      inv_ls, d, all, all, out + c,
                                      transform);
  }
  if (c < count) {
    const long long rest = static_cast<long long>(count - c);
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i mask_lo = _mm256_cmpgt_epi64(_mm256_set1_epi64x(rest), lane);
    const __m256i mask_hi =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(rest - 4), lane);
    if (rest > 4) {
      WeightedSumGroupAvx2<true, true>(x, x_stride, n, w, qt + c, qt_stride,
                                       inv_ls, d, mask_lo, mask_hi, out + c,
                                       transform);
    } else {
      WeightedSumGroupAvx2<true, false>(x, x_stride, n, w, qt + c, qt_stride,
                                        inv_ls, d, mask_lo, mask_hi, out + c,
                                        transform);
    }
  }
}

// Widest stencil whose shared prefixes fit the fill's stack scratch;
// wider stencils take the row fill, which gives the same bits.
constexpr size_t kMaxStencilDim = 64;

// Coordinate-stencil fill (simd.h): four training rows in the lanes. Per
// group, the centre's scaled differences diff[t], the prefixes chain[t] of
// the four FMA chains (chain t mod 4 after dimension t) and the prefixes
// tail[j] of the FMA tail (r2 after the combine and the tail's first j
// dimensions) are computed once, each a 4-lane vector stored as doubles.
// Stencil rows 2k and 2k+1, which differ from the centre in column k only,
// then redo side by side just the chain that holds k from k onward, the
// combine and the tail; or, when k is in the tail, the tail from k onward.
// Absent lanes of the last group repeat its last training row and are not
// stored.
template <typename TransformFn>
inline void StencilFillAvx2(const double* x, size_t x_stride, size_t n,
                            const double* q, size_t q_stride,
                            const double* inv_ls, size_t d, double* out,
                            size_t out_stride, TransformFn transform) {
  const size_t d4 = d & ~size_t{3};
  double centre[kMaxStencilDim];
  double xs[4 * kMaxStencilDim], diff[4 * kMaxStencilDim];
  double chain[4 * kMaxStencilDim], tail[4 * 4];
  // Column 0's centre value is in row 2, every other column's in row 0.
  for (size_t t = 0; t < d; ++t) {
    centre[t] = q[(t == 0 ? 2 : 0) * q_stride + t];
  }
  for (size_t g = 0; g < n; g += 4) {
    const size_t lanes = n - g < 4 ? n - g : 4;
    const double* p[4];
    for (size_t l = 0; l < 4; ++l) {
      p[l] = x + (g + (l < lanes ? l : lanes - 1)) * x_stride;
    }
    __m256d s[4];
    for (int j = 0; j < 4; ++j) s[j] = _mm256_setzero_pd();
    for (size_t t = 0; t < d; ++t) {
      const __m256d xt = _mm256_setr_pd(p[0][t], p[1][t], p[2][t], p[3][t]);
      const __m256d dt =
          _mm256_mul_pd(_mm256_sub_pd(xt, _mm256_set1_pd(centre[t])),
                        _mm256_set1_pd(inv_ls[t]));
      _mm256_storeu_pd(xs + 4 * t, xt);
      _mm256_storeu_pd(diff + 4 * t, dt);
      if (t < d4) {
        s[t & 3] = _mm256_fmadd_pd(dt, dt, s[t & 3]);
        _mm256_storeu_pd(chain + 4 * t, s[t & 3]);
      }
    }
    const __m256d sum02 = _mm256_add_pd(s[0], s[2]);
    const __m256d sum13 = _mm256_add_pd(s[1], s[3]);
    __m256d r2 = _mm256_add_pd(sum02, sum13);
    _mm256_storeu_pd(tail, r2);
    for (size_t t = d4; t < d; ++t) {
      const __m256d dt = _mm256_loadu_pd(diff + 4 * t);
      r2 = _mm256_fmadd_pd(dt, dt, r2);
      _mm256_storeu_pd(tail + 4 * (t - d4 + 1), r2);
    }
    // The kernel values of the two stencil rows whose column k holds `vp`
    // and `vm`.
    const auto pair_values = [&](size_t k, double vp, double vm, __m256d* kp,
                                 __m256d* km) {
      const __m256d xk = _mm256_loadu_pd(xs + 4 * k);
      const __m256d il = _mm256_set1_pd(inv_ls[k]);
      const __m256d dp =
          _mm256_mul_pd(_mm256_sub_pd(xk, _mm256_set1_pd(vp)), il);
      const __m256d dm =
          _mm256_mul_pd(_mm256_sub_pd(xk, _mm256_set1_pd(vm)), il);
      __m256d ap, am;
      size_t t;
      if (k < d4) {
        const __m256d prefix = k >= 4 ? _mm256_loadu_pd(chain + 4 * (k - 4))
                                      : _mm256_setzero_pd();
        __m256d sp = _mm256_fmadd_pd(dp, dp, prefix);
        __m256d sm = _mm256_fmadd_pd(dm, dm, prefix);
        for (t = k + 4; t < d4; t += 4) {
          const __m256d dt = _mm256_loadu_pd(diff + 4 * t);
          sp = _mm256_fmadd_pd(dt, dt, sp);
          sm = _mm256_fmadd_pd(dt, dt, sm);
        }
        // (s0 + s2) + (s1 + s3) with chain k mod 4 replaced; the adds
        // commute bit for bit.
        const size_t j = k & 3;
        const __m256d other = s[j ^ 2];
        if ((j & 1) == 0) {
          ap = _mm256_add_pd(_mm256_add_pd(sp, other), sum13);
          am = _mm256_add_pd(_mm256_add_pd(sm, other), sum13);
        } else {
          ap = _mm256_add_pd(sum02, _mm256_add_pd(sp, other));
          am = _mm256_add_pd(sum02, _mm256_add_pd(sm, other));
        }
        t = d4;
      } else {
        const __m256d prefix = _mm256_loadu_pd(tail + 4 * (k - d4));
        ap = _mm256_fmadd_pd(dp, dp, prefix);
        am = _mm256_fmadd_pd(dm, dm, prefix);
        t = k + 1;
      }
      for (; t < d; ++t) {
        const __m256d dt = _mm256_loadu_pd(diff + 4 * t);
        ap = _mm256_fmadd_pd(dt, dt, ap);
        am = _mm256_fmadd_pd(dt, dt, am);
      }
      *kp = transform(ap);
      *km = transform(am);
    };
    // Two columns (four stencil rows) at a time, transposed so each
    // training row receives four consecutive values.
    size_t k = 0;
    for (; k + 2 <= d; k += 2) {
      const double* r0 = q + 2 * k * q_stride;
      __m256d a, b, c, e;
      pair_values(k, r0[k], r0[q_stride + k], &a, &b);
      pair_values(k + 1, r0[2 * q_stride + k + 1], r0[3 * q_stride + k + 1],
                  &c, &e);
      const __m256d ab_lo = _mm256_unpacklo_pd(a, b);
      const __m256d ab_hi = _mm256_unpackhi_pd(a, b);
      const __m256d ce_lo = _mm256_unpacklo_pd(c, e);
      const __m256d ce_hi = _mm256_unpackhi_pd(c, e);
      const __m256d lane_rows[4] = {
          _mm256_permute2f128_pd(ab_lo, ce_lo, 0x20),
          _mm256_permute2f128_pd(ab_hi, ce_hi, 0x20),
          _mm256_permute2f128_pd(ab_lo, ce_lo, 0x31),
          _mm256_permute2f128_pd(ab_hi, ce_hi, 0x31),
      };
      for (size_t l = 0; l < lanes; ++l) {
        _mm256_storeu_pd(out + (g + l) * out_stride + 2 * k, lane_rows[l]);
      }
    }
    if (k < d) {
      const double* r0 = q + 2 * k * q_stride;
      __m256d a, b;
      pair_values(k, r0[k], r0[q_stride + k], &a, &b);
      double plus[4], minus[4];
      _mm256_storeu_pd(plus, a);
      _mm256_storeu_pd(minus, b);
      for (size_t l = 0; l < lanes; ++l) {
        out[(g + l) * out_stride + 2 * k] = plus[l];
        out[(g + l) * out_stride + 2 * k + 1] = minus[l];
      }
    }
  }
}

// The two kernels' transforms of a scaled squared distance, shared by the
// row fills and the weighted sums.
struct Matern52Transform {
  explicit Matern52Transform(double amp2) : vamp(_mm256_set1_pd(amp2)) {}
  __m256d operator()(__m256d r2) const {
    const __m256d r = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(5.0), r2));
    const __m256d poly = _mm256_fmadd_pd(
        _mm256_set1_pd(5.0 / 3.0), r2, _mm256_add_pd(_mm256_set1_pd(1.0), r));
    const __m256d e = ExpPd(_mm256_sub_pd(_mm256_setzero_pd(), r));
    return _mm256_mul_pd(_mm256_mul_pd(vamp, poly), e);
  }
  __m256d vamp;
};

struct SqExpTransform {
  explicit SqExpTransform(double amp2) : vamp(_mm256_set1_pd(amp2)) {}
  __m256d operator()(__m256d r2) const {
    return _mm256_mul_pd(vamp,
                         ExpPd(_mm256_mul_pd(_mm256_set1_pd(-0.5), r2)));
  }
  __m256d vamp;
};

template <typename Transform>
void KernelRowFillAvx2(const double* q, const double* x, size_t x_stride,
                       size_t count, const double* /*ls*/,
                       const double* inv_ls, size_t d, double amp2,
                       double* out) {
  KernelRowAvx2(q, x, x_stride, count, inv_ls, d, out, Transform(amp2));
}

template <typename Transform>
void KernelWeightedSumAvx2(const double* x, size_t x_stride, size_t n,
                           const double* w, const double* qt,
                           size_t qt_stride, size_t count,
                           const double* /*ls*/, const double* inv_ls,
                           size_t d, double amp2, double* out) {
  WeightedSumAvx2(x, x_stride, n, w, qt, qt_stride, count, inv_ls, d, out,
                  Transform(amp2));
}

// Stencils without a centre to share (d < 2) or wider than the stack
// scratch take the row fill through its table entry. That keeps
// KernelRowAvx2 to one caller: given a second one, GCC stopped inlining it
// and the row fills (Gram matrices, K*) ran about 1.8x slower.
template <typename Transform>
void KernelStencilFillAvx2(const double* x, size_t x_stride, size_t n,
                           const double* q, size_t q_stride, const double* ls,
                           const double* inv_ls, size_t d, double amp2,
                           double* out, size_t out_stride) {
  if (d < 2 || d > kMaxStencilDim) {
    for (size_t i = 0; i < n; ++i) {
      KernelRowFillAvx2<Transform>(x + i * x_stride, q, q_stride, 2 * d, ls,
                                   inv_ls, d, amp2, out + i * out_stride);
    }
    return;
  }
  StencilFillAvx2(x, x_stride, n, q, q_stride, inv_ls, d, out, out_stride,
                  Transform(amp2));
}

constexpr Ops kAvx2Ops = {
    DotAvx2,          NegDotAccumAvx2, AxpyAvx2,
    FnmaAvx2,         SquareAccumAvx2, ScaleAvx2,
    Trsm4x8PanelAvx2, KernelRowFillAvx2<Matern52Transform>,
    KernelRowFillAvx2<SqExpTransform>,
    KernelWeightedSumAvx2<Matern52Transform>,
    KernelWeightedSumAvx2<SqExpTransform>,
    KernelStencilFillAvx2<Matern52Transform>,
    KernelStencilFillAvx2<SqExpTransform>,
};

}  // namespace

const Ops* Avx2Ops() { return &kAvx2Ops; }

}  // namespace internal
}  // namespace simd
}  // namespace restune
