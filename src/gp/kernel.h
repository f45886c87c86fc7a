#ifndef RESTUNE_GP_KERNEL_H_
#define RESTUNE_GP_KERNEL_H_

#include <memory>
#include <vector>

#include "linalg/matrix.h"

namespace restune {

class ThreadPool;

/// Covariance kernel over normalized configuration vectors in [0,1]^d.
///
/// Kernels expose their hyper-parameters in log space so that the marginal-
/// likelihood optimizer can search an unconstrained domain; positivity of
/// amplitudes and lengthscales falls out of the exponential map.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance k(a, b). Both inputs must have `dim()` elements.
  virtual double Eval(const Vector& a, const Vector& b) const = 0;

  /// Covariance over raw `dim()`-length buffers — the allocation-free entry
  /// point the Gram/cross-covariance assembly loops use. The default wraps
  /// the Vector overload (copying); the shipped kernels override it.
  virtual double Eval(const double* a, const double* b) const;

  /// Row fill: out[j] = k(a, x + j*x_stride) for j in [0, count) — the
  /// batch entry point the Gram/cross-covariance assemblies call once per
  /// output row. The default loops Eval; the shipped kernels override it
  /// with the SIMD dispatch layer, whose scalar tier reproduces the
  /// per-pair Eval arithmetic bit for bit.
  virtual void EvalRow(const double* a, const double* x, size_t x_stride,
                       size_t count, double* out) const;

  /// Weighted cross sum, the posterior-mean pass of batch prediction:
  /// out[c] = sum_i w[i] * k(x_i, q_c) over the rows x_i of `x` (i
  /// ascending), for the `count` queries stored dimension-major as
  /// q_c[t] = qt[t*qt_stride + c]. Bit for bit the EvalRow fill of each
  /// x_i followed by simd::Axpy into a zeroed `out`, with no
  /// cross-covariance block in between. `x` holds at least one row.
  virtual void WeightedCrossSum(const Matrix& x, const double* w,
                                const double* qt, size_t qt_stride,
                                size_t count, double* out) const = 0;

  /// Coordinate-stencil fill: out[i*out_stride + r] = k(x_i, q_r) for the
  /// `count` rows x_i = x + i*x_stride and the 2·dim() rows
  /// q_r = q + r*q_stride of a coordinate stencil (dim() >= 2): rows 2k and
  /// 2k+1 equal one centre bit for bit in every column except column k.
  /// Bit for bit what EvalRow(x_i, q, q_stride, 2·dim(), ·) writes; the
  /// shipped kernels share the centre's distance work among the rows
  /// (simd::*StencilFill). The caller checks the layout. The default loops
  /// EvalRow.
  virtual void EvalStencil(const double* x, size_t x_stride, size_t count,
                           const double* q, size_t q_stride, double* out,
                           size_t out_stride) const;

  /// Input dimensionality this kernel was built for.
  virtual size_t dim() const = 0;

  /// Stable identifier used by serialization ("matern52", "se").
  virtual const char* name() const = 0;

  /// Hyper-parameters in log space: [log amplitude^2, log ls_1 .. log ls_d]
  /// for the ARD kernels shipped here.
  virtual Vector GetLogParams() const = 0;
  virtual void SetLogParams(const Vector& log_params) = 0;

  virtual std::unique_ptr<Kernel> Clone() const = 0;

  /// Gram matrix K with K_ij = k(x_i, x_j) over the rows of `x`. Symmetry
  /// is exploited — only the upper triangle is evaluated, then mirrored —
  /// and rows are distributed over `pool` (null = shared pool).
  Matrix GramMatrix(const Matrix& x, ThreadPool* pool = nullptr) const;

  /// Cross-covariance vector [k(x_query, x_i)]_i over the rows of `x`.
  Vector CrossCovariance(const Matrix& x, const Vector& x_query) const;

  /// Cross-covariance matrix K* with K*_ij = k(x_i, q_j) between training
  /// rows `x` and query rows `queries`, assembled as one block so batch
  /// prediction can run matrix-level solves. Rows are distributed over
  /// `pool` (null = shared pool).
  Matrix CrossCovarianceMatrix(const Matrix& x, const Matrix& queries,
                               ThreadPool* pool = nullptr) const;
};

/// Matérn-5/2 kernel with automatic relevance determination (per-dimension
/// lengthscales). The default surrogate kernel for database tuning response
/// surfaces: twice differentiable but less smooth than the squared
/// exponential, matching the kinked behaviour of contention knees.
class Matern52Kernel : public Kernel {
 public:
  /// All lengthscales start at `lengthscale`, amplitude^2 at `amplitude_sq`.
  explicit Matern52Kernel(size_t dim, double lengthscale = 0.5,
                          double amplitude_sq = 1.0);

  double Eval(const Vector& a, const Vector& b) const override;
  double Eval(const double* a, const double* b) const override;
  void EvalRow(const double* a, const double* x, size_t x_stride, size_t count,
               double* out) const override;
  void WeightedCrossSum(const Matrix& x, const double* w, const double* qt,
                        size_t qt_stride, size_t count,
                        double* out) const override;
  void EvalStencil(const double* x, size_t x_stride, size_t count,
                   const double* q, size_t q_stride, double* out,
                   size_t out_stride) const override;
  size_t dim() const override { return lengthscales_.size(); }
  const char* name() const override { return "matern52"; }
  Vector GetLogParams() const override;
  void SetLogParams(const Vector& log_params) override;
  std::unique_ptr<Kernel> Clone() const override;

 private:
  double amplitude_sq_;
  Vector lengthscales_;
  /// 1/lengthscales_, maintained alongside it: the AVX2 row fills replace
  /// the per-pair division with a multiply.
  Vector inv_lengthscales_;
};

/// Squared-exponential (RBF) kernel with ARD lengthscales.
class SquaredExponentialKernel : public Kernel {
 public:
  explicit SquaredExponentialKernel(size_t dim, double lengthscale = 0.5,
                                    double amplitude_sq = 1.0);

  double Eval(const Vector& a, const Vector& b) const override;
  double Eval(const double* a, const double* b) const override;
  void EvalRow(const double* a, const double* x, size_t x_stride, size_t count,
               double* out) const override;
  void WeightedCrossSum(const Matrix& x, const double* w, const double* qt,
                        size_t qt_stride, size_t count,
                        double* out) const override;
  void EvalStencil(const double* x, size_t x_stride, size_t count,
                   const double* q, size_t q_stride, double* out,
                   size_t out_stride) const override;
  size_t dim() const override { return lengthscales_.size(); }
  const char* name() const override { return "se"; }
  Vector GetLogParams() const override;
  void SetLogParams(const Vector& log_params) override;
  std::unique_ptr<Kernel> Clone() const override;

 private:
  double amplitude_sq_;
  Vector lengthscales_;
  Vector inv_lengthscales_;
};

}  // namespace restune

#endif  // RESTUNE_GP_KERNEL_H_
