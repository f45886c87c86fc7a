#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "linalg/simd/simd.h"

namespace restune {

Result<Cholesky> Cholesky::Factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    const double* lj = l.RowPtr(j);
    const double diag = simd::NegDotAccum(a(j, j), lj, lj, j);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::NumericalError(StringPrintf(
          "matrix not positive definite at pivot %zu (value %g)", j, diag));
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      const double* li = l.RowPtr(i);
      const double sum = simd::NegDotAccum(a(i, j), li, lj, j);
      l(i, j) = sum / ljj;
    }
  }
  return Cholesky(std::move(l));
}

Result<Cholesky> Cholesky::FactorWithJitter(Matrix a, double jitter,
                                            int max_attempts) {
  // A negative or non-finite jitter would silently *subtract* from the
  // diagonal and poison every retry; that is a caller bug, not a numerical
  // condition, so it fails fast instead of returning Status.
  RESTUNE_CHECK(jitter >= 0.0 && std::isfinite(jitter))
      << "jitter must be finite and non-negative, got " << jitter;
  RESTUNE_CHECK(max_attempts >= 0)
      << "max_attempts must be non-negative, got " << max_attempts;
  Result<Cholesky> result = Factor(a);
  double added = 0.0;
  for (int attempt = 0; !result.ok() && attempt < max_attempts; ++attempt) {
    const double delta = jitter - added;
    a.AddToDiagonal(delta);
    added = jitter;
    jitter *= 10.0;
    result = Factor(a);
  }
  if (result.ok()) result.value().jitter_ = added;
  return result;
}

Result<Cholesky> Cholesky::FromLower(Matrix l, double jitter) {
  if (l.rows() != l.cols()) {
    return Status::InvalidArgument("lower factor must be square");
  }
  if (!(jitter >= 0.0) || !std::isfinite(jitter)) {
    return Status::InvalidArgument("factor jitter must be finite and >= 0");
  }
  const size_t n = l.rows();
  for (size_t i = 0; i < n; ++i) {
    const double pivot = l(i, i);
    if (!(pivot > 0.0) || !std::isfinite(pivot)) {
      return Status::NumericalError(StringPrintf(
          "restored factor has invalid pivot %g at %zu", pivot, i));
    }
    // Zero the strict upper triangle: Factor() never writes it, and the
    // solves assume it is zero, so a sloppy caller must not smuggle values
    // in through it.
    double* row = l.RowPtr(i);
    for (size_t c = i + 1; c < n; ++c) row[c] = 0.0;
  }
  Cholesky out(std::move(l));
  out.jitter_ = jitter;
  return out;
}

Vector Cholesky::SolveLower(const Vector& b) const {
  const size_t n = size();
  RESTUNE_DCHECK(b.size() == n)
      << "rhs size " << b.size() << " != factor size " << n;
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    const double* li = l_.RowPtr(i);
    const double sum = simd::NegDotAccum(b[i], li, y.data(), i);
    y[i] = sum / li[i];
  }
  return y;
}

Vector Cholesky::SolveLowerTranspose(const Vector& b) const {
  const size_t n = size();
  RESTUNE_DCHECK(b.size() == n)
      << "rhs size " << b.size() << " != factor size " << n;
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l_(k, ii) * x[k];
    x[ii] = sum / l_(ii, ii);
  }
  return x;
}

Vector Cholesky::Solve(const Vector& b) const {
  return SolveLowerTranspose(SolveLower(b));
}

Matrix Cholesky::Solve(const Matrix& b) const {
  RESTUNE_DCHECK(b.rows() == size())
      << "rhs rows " << b.rows() << " != factor size " << size();
  Matrix out(b.rows(), b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    const Vector x = Solve(b.Col(c));
    for (size_t r = 0; r < b.rows(); ++r) out(r, c) = x[r];
  }
  return out;
}

double Cholesky::LogDeterminant() const {
  double sum = 0.0;
  for (size_t i = 0; i < size(); ++i) {
    // A factor only exists after a successful factorization, so every pivot
    // is positive by construction; a violation here means the factor was
    // corrupted after the fact and log() would silently return NaN.
    RESTUNE_CHECK_PSD_HINT(l_(i, i), i);
    sum += std::log(l_(i, i));
  }
  return 2.0 * sum;
}

Matrix Cholesky::Inverse() const { return Solve(Matrix::Identity(size())); }

Matrix Cholesky::SolveLowerMatrix(const Matrix& b, ThreadPool* pool) const {
  const size_t n = size();
  RESTUNE_DCHECK(b.rows() == n)
      << "rhs rows " << b.rows() << " != factor size " << n;
  const size_t m = b.cols();
  Matrix y = b;
  if (m == 0) return y;
  if (m <= 4) {
    // Narrow blocks (refinement probes, batch-of-one queries) gain nothing
    // from the stripe machinery; the per-column scalar substitution also
    // keeps their arithmetic identical to SolveLower.
    Vector col(n);
    for (size_t c = 0; c < m; ++c) {
      for (size_t i = 0; i < n; ++i) col[i] = y(i, c);
      const Vector sol = SolveLower(col);
      for (size_t i = 0; i < n; ++i) y(i, c) = sol[i];
    }
    return y;
  }
  // Stripes of ~64 columns (512 bytes/row) keep the active slice of Y
  // resident while a row sweep streams L exactly once per stripe. Within a
  // stripe the sweep is blocked: the bulk of the update — subtracting the
  // already-solved rows above each block — is a small matrix product done
  // in 4-row x 8-column register tiles, so every loaded Y row feeds four
  // fused multiply-adds instead of one. Per element the subtraction order
  // is still k ascending, so results do not depend on the blocking.
  constexpr size_t kStripe = 64;
  constexpr size_t kRowBlock = 48;
  const size_t num_stripes = (m + kStripe - 1) / kStripe;
  // A stripe is a heavy task (an n×n triangle against 64 columns) and a
  // sweep has only a few, so each is claimed alone: a range loop over so
  // few items would run below the pool's grain, serially.
  ResolvePool(pool)->ParallelFor(num_stripes, [&](size_t s) {
    const size_t c0 = s * kStripe;
    const size_t c1 = std::min(m, c0 + kStripe);
    for (size_t b0 = 0; b0 < n; b0 += kRowBlock) {
      const size_t b1 = std::min(n, b0 + kRowBlock);
      // Y[b0:b1) -= L[b0:b1, 0:b0) * Y[0:b0) with register tiling.
      size_t i = b0;
      for (; b0 > 0 && i + 4 <= b1; i += 4) {
        const double* l0 = l_.RowPtr(i);
        const double* l1 = l_.RowPtr(i + 1);
        const double* l2 = l_.RowPtr(i + 2);
        const double* l3 = l_.RowPtr(i + 3);
        double* y0 = y.RowPtr(i);
        double* y1 = y.RowPtr(i + 1);
        double* y2 = y.RowPtr(i + 2);
        double* y3 = y.RowPtr(i + 3);
        size_t c = c0;
        for (; c + 8 <= c1; c += 8) {
          // The whole k-loop for this 4x8 tile lives inside one
          // dispatched call; updates stay in-place in Y, and per
          // element the subtraction order is still k ascending.
          simd::Trsm4x8Panel(y0 + c, y1 + c, y2 + c, y3 + c, l0, l1, l2, l3,
                             y.RowPtr(0) + c, m, b0);
        }
        for (; c < c1; ++c) {
          double a0 = y0[c], a1 = y1[c], a2 = y2[c], a3 = y3[c];
          for (size_t k = 0; k < b0; ++k) {
            const double v = y(k, c);
            a0 -= l0[k] * v;
            a1 -= l1[k] * v;
            a2 -= l2[k] * v;
            a3 -= l3[k] * v;
          }
          y0[c] = a0;
          y1[c] = a1;
          y2[c] = a2;
          y3[c] = a3;
        }
      }
      for (; i < b1; ++i) {
        const double* li = l_.RowPtr(i);
        double* yi = y.RowPtr(i);
        for (size_t k = 0; k < b0; ++k) {
          simd::Fnma(yi + c0, li[k], y.RowPtr(k) + c0, c1 - c0);
        }
      }
      // Forward substitution within the diagonal block.
      for (i = b0; i < b1; ++i) {
        const double* li = l_.RowPtr(i);
        double* yi = y.RowPtr(i);
        for (size_t k = b0; k < i; ++k) {
          simd::Fnma(yi + c0, li[k], y.RowPtr(k) + c0, c1 - c0);
        }
        simd::Scale(yi + c0, 1.0 / li[i], c1 - c0);
      }
    }
  });
  return y;
}

Vector Cholesky::InverseDiagonal(ThreadPool* pool) const {
  const size_t n = size();
  Vector diag(n);
  ResolvePool(pool)->ParallelForRanges(n, [&](size_t begin, size_t end) {
    Vector y;
    for (size_t i = begin; i < end; ++i) {
      // Solve L y = e_i over the trailing subsystem rows i..n-1 only; the
      // leading entries of the solution are structurally zero.
      y.assign(n - i, 0.0);
      y[0] = 1.0 / l_(i, i);
      for (size_t r = i + 1; r < n; ++r) {
        const double* lr = l_.RowPtr(r);
        const double sum = simd::NegDotAccum(0.0, lr + i, y.data(), r - i);
        y[r - i] = sum / lr[r];
      }
      diag[i] = simd::Dot(y.data(), y.data(), y.size());
    }
  });
  return diag;
}

Status Cholesky::RankOneUpdate(const Vector& k, double k_ss) {
  const size_t n = size();
  if (k.size() != n) {
    return Status::InvalidArgument("cross-covariance size mismatch");
  }
  const Vector l_row = SolveLower(k);
  const double d = k_ss - Dot(l_row, l_row);
  if (d <= 0.0 || !std::isfinite(d)) {
    return Status::NumericalError(StringPrintf(
        "extended matrix not positive definite (new pivot %g)", d));
  }
  Matrix grown(n + 1, n + 1);
  for (size_t r = 0; r < n; ++r) {
    const double* src = l_.RowPtr(r);
    double* dst = grown.RowPtr(r);
    for (size_t c = 0; c <= r; ++c) dst[c] = src[c];
  }
  double* last = grown.RowPtr(n);
  for (size_t c = 0; c < n; ++c) last[c] = l_row[c];
  last[n] = std::sqrt(d);
  l_ = std::move(grown);
  return Status::OK();
}

}  // namespace restune
