#include "gp/kernel.h"

#include <cmath>

#include "common/contracts.h"

#include "common/thread_pool.h"
#include "linalg/simd/simd.h"

namespace restune {

double Kernel::Eval(const double* a, const double* b) const {
  return Eval(Vector(a, a + dim()), Vector(b, b + dim()));
}

void Kernel::EvalRow(const double* a, const double* x, size_t x_stride,
                     size_t count, double* out) const {
  for (size_t j = 0; j < count; ++j) out[j] = Eval(a, x + j * x_stride);
}

void Kernel::EvalStencil(const double* x, size_t x_stride, size_t count,
                         const double* q, size_t q_stride, double* out,
                         size_t out_stride) const {
  for (size_t i = 0; i < count; ++i) {
    EvalRow(x + i * x_stride, q, q_stride, 2 * dim(), out + i * out_stride);
  }
}

Matrix Kernel::GramMatrix(const Matrix& x, ThreadPool* pool) const {
  RESTUNE_DCHECK(x.cols() == dim())
      << "input dim " << x.cols() << " != kernel dim " << dim();
  const size_t n = x.rows();
  // Kernel symmetry spot check (debug only): the mirror fill below *assumes*
  // Eval(a, b) == Eval(b, a); a broken kernel would silently produce an
  // asymmetric Gram matrix whose Cholesky is garbage.
  if (n >= 2) {
    RESTUNE_DCHECK(Eval(x.RowPtr(0), x.RowPtr(1)) ==
                   Eval(x.RowPtr(1), x.RowPtr(0)))
        << "kernel '" << name() << "' is not symmetric";
  }
  Matrix k(n, n);
  ThreadPool* tp = ResolvePool(pool);
  // Phase 1: each task owns a row stripe and fills its upper-triangle part
  // k(i, j >= i) — disjoint writes, so results are pool-size independent.
  tp->ParallelForRanges(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const double* xi = x.RowPtr(i);
      double* ki = k.RowPtr(i);
      EvalRow(xi, x.RowPtr(i), x.cols(), n - i, ki + i);
    }
  });
  // Phase 2: mirror. Row i's lower part reads upper-triangle entries only.
  tp->ParallelForRanges(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      double* ki = k.RowPtr(i);
      for (size_t j = 0; j < i; ++j) ki[j] = k(j, i);
    }
  });
  return k;
}

Vector Kernel::CrossCovariance(const Matrix& x, const Vector& x_query) const {
  RESTUNE_DCHECK(x_query.size() == dim())
      << "query dim " << x_query.size() << " != kernel dim " << dim();
  Vector out(x.rows());
  if (x.rows() == 0) return out;
  // The kernels here are symmetric (GramMatrix DCHECKs this), so filling
  // the row as k(query, x_i) matches the historical k(x_i, query) loop —
  // (a-b) and (b-a) square to the same value bit for bit.
  EvalRow(x_query.data(), x.RowPtr(0), x.cols(), x.rows(), out.data());
  return out;
}

Matrix Kernel::CrossCovarianceMatrix(const Matrix& x, const Matrix& queries,
                                     ThreadPool* pool) const {
  RESTUNE_DCHECK(x.cols() == dim() && queries.cols() == dim())
      << "input dims " << x.cols() << "/" << queries.cols()
      << " != kernel dim " << dim();
  const size_t n = x.rows();
  const size_t m = queries.rows();
  Matrix k_star(n, m);
  ResolvePool(pool)->ParallelForRanges(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const double* xi = x.RowPtr(i);
      double* row = k_star.RowPtr(i);
      if (m > 0) EvalRow(xi, queries.RowPtr(0), queries.cols(), m, row);
    }
  });
  return k_star;
}

namespace {

/// Lengthscale-weighted squared distance sum_i ((a_i-b_i)/ls_i)^2.
double ScaledSquaredDistance(const double* a, const double* b,
                             const Vector& lengthscales) {
  double sum = 0.0;
  for (size_t i = 0; i < lengthscales.size(); ++i) {
    const double d = (a[i] - b[i]) / lengthscales[i];
    sum += d * d;
  }
  return sum;
}

/// 1/ls for each lengthscale — kept alongside the lengthscales so the AVX2
/// row fills can multiply instead of divide.
Vector Reciprocals(const Vector& lengthscales) {
  Vector out(lengthscales.size());
  for (size_t i = 0; i < lengthscales.size(); ++i) {
    out[i] = 1.0 / lengthscales[i];
  }
  return out;
}

}  // namespace

Matern52Kernel::Matern52Kernel(size_t dim, double lengthscale,
                               double amplitude_sq)
    : amplitude_sq_(amplitude_sq),
      lengthscales_(dim, lengthscale),
      inv_lengthscales_(dim, 1.0 / lengthscale) {}

double Matern52Kernel::Eval(const Vector& a, const Vector& b) const {
  RESTUNE_DCHECK(a.size() == dim() && b.size() == dim())
      << "input dims " << a.size() << "/" << b.size() << " != kernel dim "
      << dim();
  return Eval(a.data(), b.data());
}

double Matern52Kernel::Eval(const double* a, const double* b) const {
  const double r2 = ScaledSquaredDistance(a, b, lengthscales_);
  const double r = std::sqrt(5.0 * r2);
  return amplitude_sq_ * (1.0 + r + 5.0 * r2 / 3.0) * std::exp(-r);
}

void Matern52Kernel::EvalRow(const double* a, const double* x, size_t x_stride,
                             size_t count, double* out) const {
  simd::Matern52Row(a, x, x_stride, count, lengthscales_.data(),
                    inv_lengthscales_.data(), dim(), amplitude_sq_, out);
}

void Matern52Kernel::WeightedCrossSum(const Matrix& x, const double* w,
                                      const double* qt, size_t qt_stride,
                                      size_t count, double* out) const {
  simd::Matern52WeightedSum(x.RowPtr(0), x.cols(), x.rows(), w, qt, qt_stride,
                            count, lengthscales_.data(),
                            inv_lengthscales_.data(), dim(), amplitude_sq_,
                            out);
}

void Matern52Kernel::EvalStencil(const double* x, size_t x_stride,
                                 size_t count, const double* q,
                                 size_t q_stride, double* out,
                                 size_t out_stride) const {
  simd::Matern52StencilFill(x, x_stride, count, q, q_stride,
                            lengthscales_.data(), inv_lengthscales_.data(),
                            dim(), amplitude_sq_, out, out_stride);
}

Vector Matern52Kernel::GetLogParams() const {
  Vector out;
  out.reserve(1 + lengthscales_.size());
  out.push_back(std::log(amplitude_sq_));
  for (double ls : lengthscales_) out.push_back(std::log(ls));
  return out;
}

void Matern52Kernel::SetLogParams(const Vector& log_params) {
  RESTUNE_CHECK(log_params.size() == 1 + lengthscales_.size())
      << "got " << log_params.size() << " log-params, kernel needs "
      << 1 + lengthscales_.size();
  RESTUNE_DCHECK_ALL_FINITE(log_params);
  amplitude_sq_ = std::exp(log_params[0]);
  for (size_t i = 0; i < lengthscales_.size(); ++i) {
    lengthscales_[i] = std::exp(log_params[i + 1]);
  }
  inv_lengthscales_ = Reciprocals(lengthscales_);
}

std::unique_ptr<Kernel> Matern52Kernel::Clone() const {
  return std::make_unique<Matern52Kernel>(*this);
}

SquaredExponentialKernel::SquaredExponentialKernel(size_t dim,
                                                   double lengthscale,
                                                   double amplitude_sq)
    : amplitude_sq_(amplitude_sq),
      lengthscales_(dim, lengthscale),
      inv_lengthscales_(dim, 1.0 / lengthscale) {}

double SquaredExponentialKernel::Eval(const Vector& a, const Vector& b) const {
  RESTUNE_DCHECK(a.size() == dim() && b.size() == dim())
      << "input dims " << a.size() << "/" << b.size() << " != kernel dim "
      << dim();
  return Eval(a.data(), b.data());
}

double SquaredExponentialKernel::Eval(const double* a, const double* b) const {
  return amplitude_sq_ *
         std::exp(-0.5 * ScaledSquaredDistance(a, b, lengthscales_));
}

void SquaredExponentialKernel::EvalRow(const double* a, const double* x,
                                       size_t x_stride, size_t count,
                                       double* out) const {
  simd::SqExpRow(a, x, x_stride, count, lengthscales_.data(),
                 inv_lengthscales_.data(), dim(), amplitude_sq_, out);
}

void SquaredExponentialKernel::WeightedCrossSum(const Matrix& x,
                                                const double* w,
                                                const double* qt,
                                                size_t qt_stride, size_t count,
                                                double* out) const {
  simd::SqExpWeightedSum(x.RowPtr(0), x.cols(), x.rows(), w, qt, qt_stride,
                         count, lengthscales_.data(),
                         inv_lengthscales_.data(), dim(), amplitude_sq_, out);
}

void SquaredExponentialKernel::EvalStencil(const double* x, size_t x_stride,
                                           size_t count, const double* q,
                                           size_t q_stride, double* out,
                                           size_t out_stride) const {
  simd::SqExpStencilFill(x, x_stride, count, q, q_stride, lengthscales_.data(),
                         inv_lengthscales_.data(), dim(), amplitude_sq_, out,
                         out_stride);
}

Vector SquaredExponentialKernel::GetLogParams() const {
  Vector out;
  out.reserve(1 + lengthscales_.size());
  out.push_back(std::log(amplitude_sq_));
  for (double ls : lengthscales_) out.push_back(std::log(ls));
  return out;
}

void SquaredExponentialKernel::SetLogParams(const Vector& log_params) {
  RESTUNE_CHECK(log_params.size() == 1 + lengthscales_.size())
      << "got " << log_params.size() << " log-params, kernel needs "
      << 1 + lengthscales_.size();
  RESTUNE_DCHECK_ALL_FINITE(log_params);
  amplitude_sq_ = std::exp(log_params[0]);
  for (size_t i = 0; i < lengthscales_.size(); ++i) {
    lengthscales_[i] = std::exp(log_params[i + 1]);
  }
  inv_lengthscales_ = Reciprocals(lengthscales_);
}

std::unique_ptr<Kernel> SquaredExponentialKernel::Clone() const {
  return std::make_unique<SquaredExponentialKernel>(*this);
}

}  // namespace restune
