#ifndef RESTUNE_LINALG_SIMD_SIMD_INTERNAL_H_
#define RESTUNE_LINALG_SIMD_SIMD_INTERNAL_H_

#include <cstddef>

/// Dispatch-table plumbing shared between simd.cc (scalar tier, tier
/// resolution) and simd_avx2.cc (the -mavx2 -mfma translation unit). Not
/// part of the public surface — include "linalg/simd/simd.h" instead.
namespace restune {
namespace simd {
namespace internal {

/// One function pointer per public primitive. Each tier provides a fully
/// populated table; dispatch swaps the whole table at once so a run never
/// mixes tiers.
struct Ops {
  double (*dot)(const double* a, const double* b, size_t n);
  double (*neg_dot_accum)(double init, const double* a, const double* b,
                          size_t n);
  void (*axpy)(double* acc, double w, const double* x, size_t n);
  void (*fnma)(double* acc, double w, const double* x, size_t n);
  void (*square_accum)(double* acc, const double* x, size_t n);
  void (*scale)(double* x, double s, size_t n);
  void (*trsm_4x8_panel)(double* a0, double* a1, double* a2, double* a3,
                         const double* l0, const double* l1, const double* l2,
                         const double* l3, const double* y, size_t y_stride,
                         size_t k_count);
  void (*matern52_row)(const double* q, const double* x, size_t x_stride,
                       size_t count, const double* ls, const double* inv_ls,
                       size_t d, double amp2, double* out);
  void (*sqexp_row)(const double* q, const double* x, size_t x_stride,
                    size_t count, const double* ls, const double* inv_ls,
                    size_t d, double amp2, double* out);
  void (*matern52_weighted_sum)(const double* x, size_t x_stride, size_t n,
                                const double* w, const double* qt,
                                size_t qt_stride, size_t count,
                                const double* ls, const double* inv_ls,
                                size_t d, double amp2, double* out);
  void (*sqexp_weighted_sum)(const double* x, size_t x_stride, size_t n,
                             const double* w, const double* qt,
                             size_t qt_stride, size_t count, const double* ls,
                             const double* inv_ls, size_t d, double amp2,
                             double* out);
  void (*matern52_stencil_fill)(const double* x, size_t x_stride, size_t n,
                                const double* q, size_t q_stride,
                                const double* ls, const double* inv_ls,
                                size_t d, double amp2, double* out,
                                size_t out_stride);
  void (*sqexp_stencil_fill)(const double* x, size_t x_stride, size_t n,
                             const double* q, size_t q_stride,
                             const double* ls, const double* inv_ls, size_t d,
                             double amp2, double* out, size_t out_stride);
};

#if defined(RESTUNE_SIMD_AVX2_COMPILED)
/// Defined in simd_avx2.cc; safe to *call* only on CPUs with AVX2+FMA.
const Ops* Avx2Ops();
#endif

}  // namespace internal
}  // namespace simd
}  // namespace restune

#endif  // RESTUNE_LINALG_SIMD_SIMD_INTERNAL_H_
