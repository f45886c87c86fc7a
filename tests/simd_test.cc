#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gp/gp_model.h"
#include "gp/kernel.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/simd/simd.h"

namespace restune {
namespace {

// Shapes chosen to exercise every tail path of the 4-wide AVX2 loops:
// below one vector (1..3), exact multiples (4, 8, 16, 48), one over/under
// (7, 15, 33, 65) — and odd dims make interior Matrix rows unaligned.
const size_t kSizes[] = {1, 3, 4, 7, 8, 15, 16, 33, 48, 65};
const size_t kDims[] = {1, 2, 3, 14};

Vector RandomVector(size_t n, Rng* rng) {
  Vector v(n);
  for (double& x : v) x = rng->Uniform(-2.0, 2.0);
  return v;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng->Uniform();
  }
  return m;
}

/// Runs `fn` once under the forced scalar tier and once under the AVX2
/// tier (which silently stays scalar on machines without AVX2, making the
/// comparison trivially true there), restoring auto-dispatch afterwards.
template <typename Fn>
void CompareTiers(Fn fn, std::vector<double>* scalar_out,
                  std::vector<double>* simd_out) {
  simd::ForceTierForTest(simd::Tier::kScalar);
  *scalar_out = fn();
  simd::ForceTierForTest(simd::Tier::kAvx2);
  *simd_out = fn();
  simd::ResetTierForTest();
}

void ExpectClose(const std::vector<double>& a, const std::vector<double>& b,
                 double tol = 1e-12) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max(1.0, std::abs(a[i]));
    EXPECT_NEAR(a[i], b[i], tol * scale) << "at index " << i;
  }
}

TEST(SimdTest, MatrixStorageIsCacheLineAligned) {
  for (size_t n : kSizes) {
    Matrix m(n, n, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.RowPtr(0)) % 64, 0u);
  }
}

TEST(SimdTest, ForcedTierFallsBackWhenUnavailable) {
  const simd::Tier got = simd::ForceTierForTest(simd::Tier::kAvx2);
  if (simd::Avx2Available()) {
    EXPECT_EQ(got, simd::Tier::kAvx2);
  } else {
    EXPECT_EQ(got, simd::Tier::kScalar);
  }
  simd::ResetTierForTest();
}

TEST(SimdTest, DotMatchesAcrossTiers) {
  Rng rng(101);
  for (size_t n : kSizes) {
    const Vector a = RandomVector(n, &rng);
    const Vector b = RandomVector(n, &rng);
    std::vector<double> s, v;
    CompareTiers(
        [&] {
          return std::vector<double>{simd::Dot(a.data(), b.data(), n)};
        },
        &s, &v);
    ExpectClose(s, v);
  }
}

TEST(SimdTest, NegDotAccumMatchesAcrossTiers) {
  Rng rng(102);
  for (size_t n : kSizes) {
    const Vector a = RandomVector(n, &rng);
    const Vector b = RandomVector(n, &rng);
    std::vector<double> s, v;
    CompareTiers(
        [&] {
          return std::vector<double>{
              simd::NegDotAccum(3.25, a.data(), b.data(), n)};
        },
        &s, &v);
    ExpectClose(s, v);
  }
}

TEST(SimdTest, AxpyFnmaSquareAccumScaleMatchAcrossTiers) {
  Rng rng(103);
  for (size_t n : kSizes) {
    const Vector x = RandomVector(n, &rng);
    const Vector init = RandomVector(n, &rng);
    std::vector<double> s, v;
    CompareTiers(
        [&] {
          Vector acc = init;
          simd::Axpy(acc.data(), 0.75, x.data(), n);
          simd::Fnma(acc.data(), 1.5, x.data(), n);
          simd::SquareAccum(acc.data(), x.data(), n);
          simd::Scale(acc.data(), 1.0 / 3.0, n);
          return std::vector<double>(acc.begin(), acc.end());
        },
        &s, &v);
    ExpectClose(s, v);
  }
}

TEST(SimdTest, KernelRowFillsMatchAcrossTiersAllShapes) {
  Rng rng(104);
  for (size_t d : kDims) {
    const Matern52Kernel matern(d, 0.4, 1.3);
    const SquaredExponentialKernel se(d, 0.6, 0.9);
    for (size_t n : kSizes) {
      const Matrix x = RandomMatrix(n, d, &rng);
      const Vector q = RandomVector(d, &rng);
      for (const Kernel* kernel :
           {static_cast<const Kernel*>(&matern),
            static_cast<const Kernel*>(&se)}) {
        std::vector<double> s, v;
        CompareTiers(
            [&] {
              Vector out(n);
              kernel->EvalRow(q.data(), x.RowPtr(0), d, n, out.data());
              return std::vector<double>(out.begin(), out.end());
            },
            &s, &v);
        ExpectClose(s, v);
      }
    }
  }
}

TEST(SimdTest, ScalarTierReproducesEvalBitForBit) {
  // The scalar tier is the determinism anchor: row fills must equal the
  // per-pair Eval arithmetic exactly, not just to tolerance.
  Rng rng(105);
  simd::ForceTierForTest(simd::Tier::kScalar);
  for (size_t d : kDims) {
    const Matern52Kernel kernel(d, 0.5, 1.0);
    const Matrix x = RandomMatrix(9, d, &rng);
    const Vector q = RandomVector(d, &rng);
    Vector row(9);
    kernel.EvalRow(q.data(), x.RowPtr(0), d, 9, row.data());
    for (size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(row[j], kernel.Eval(q.data(), x.RowPtr(j)));
    }
  }
  simd::ResetTierForTest();
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The mean pass the fused primitive replaces: one EvalRow fill of
/// k(x_i, ·) per training row, accumulated into a zeroed `out` by Axpy.
Vector RowFillPlusAxpy(const Kernel& kernel, const Matrix& x, const Vector& w,
                       const Matrix& queries) {
  const size_t m = queries.rows();
  Vector out(m, 0.0);
  Vector row(m);
  for (size_t i = 0; i < x.rows(); ++i) {
    kernel.EvalRow(x.RowPtr(i), queries.RowPtr(0), queries.cols(), m,
                   row.data());
    simd::Axpy(out.data(), w[i], row.data(), m);
  }
  return out;
}

/// A kernel of dimension d with per-dimension lengthscales drawn from
/// [ls_lo, ls_hi] (log-uniform).
std::unique_ptr<Kernel> ArdKernel(bool matern, size_t d, double ls_lo,
                                  double ls_hi, Rng* rng) {
  std::unique_ptr<Kernel> kernel;
  if (matern) {
    kernel = std::make_unique<Matern52Kernel>(d);
  } else {
    kernel = std::make_unique<SquaredExponentialKernel>(d);
  }
  Vector log_params(d + 1);
  log_params[0] = rng->Uniform(-1.0, 1.0);
  for (size_t t = 0; t < d; ++t) {
    log_params[t + 1] = rng->Uniform(std::log(ls_lo), std::log(ls_hi));
  }
  kernel->SetLogParams(log_params);
  return kernel;
}

TEST(SimdTest, FusedWeightedSumKeepsRowFillPlusAxpyBits) {
  // Every d mod 4 tail (and d < 4), every query-group tail, and
  // lengthscales short enough that most kernel values flush to zero
  // (with a few queries placed on training rows, so r = 0 still occurs).
  const size_t kCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 28, 63, 64, 65};
  const size_t kRows[] = {1, 2, 80};
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  Rng rng(109);
  size_t cases = 0;
  for (simd::Tier tier : tiers) {
    ASSERT_EQ(simd::ForceTierForTest(tier), tier);
    for (size_t d = 1; d <= 17; ++d) {
      for (bool matern : {true, false}) {
        for (bool flush : {false, true}) {
          const std::unique_ptr<Kernel> kernel =
              flush ? ArdKernel(matern, d, 1e-4, 2e-3, &rng)
                    : ArdKernel(matern, d, 0.05, 2.0, &rng);
          for (size_t n : kRows) {
            const Matrix x = RandomMatrix(n, d, &rng);
            const Vector w = RandomVector(n, &rng);
            for (size_t m : kCounts) {
              SCOPED_TRACE(::testing::Message()
                           << simd::TierName(tier) << " " << kernel->name()
                           << " d=" << d << " n=" << n << " m=" << m
                           << (flush ? " flushing" : ""));
              Matrix queries = RandomMatrix(m, d, &rng);
              for (size_t c = 0; c < m; c += 5) {
                for (size_t t = 0; t < d; ++t) queries(c, t) = x(c % n, t);
              }
              const Vector want = RowFillPlusAxpy(*kernel, x, w, queries);
              const Matrix qt = queries.Transpose();
              // The whole block, and the same block in two stripes split
              // at a column that is not a multiple of the lane count.
              Vector whole(m), split(m);
              kernel->WeightedCrossSum(x, w.data(), qt.RowPtr(0), m, m,
                                       whole.data());
              const size_t cut = m / 3;
              kernel->WeightedCrossSum(x, w.data(), qt.RowPtr(0), m, cut,
                                       split.data());
              kernel->WeightedCrossSum(x, w.data(), qt.RowPtr(0) + cut, m,
                                       m - cut, split.data() + cut);
              for (size_t c = 0; c < m; ++c) {
                ASSERT_EQ(Bits(whole[c]), Bits(want[c]))
                    << "column " << c << ": " << whole[c] << " vs "
                    << want[c];
                ASSERT_EQ(Bits(split[c]), Bits(want[c]))
                    << "split column " << c;
              }
              ++cases;
            }
          }
        }
      }
    }
  }
  simd::ResetTierForTest();
  EXPECT_EQ(cases, tiers.size() * 17 * 2 * 2 * 3 * 14);
}

/// The coordinate stencil of the optimizer's refinement around `centre`
/// at `step`: rows 2k and 2k+1 move column k up and down, clamped to
/// [0, 1]. With `box`, every row is then clamped into [0.3, 0.7], as a
/// trust-region projection does.
Matrix CoordinateStencil(const Vector& centre, double step, bool box) {
  const size_t d = centre.size();
  Matrix stencil(2 * d, d);
  for (size_t k = 0; k < d; ++k) {
    for (size_t t = 0; t < d; ++t) {
      stencil(2 * k, t) = centre[t];
      stencil(2 * k + 1, t) = centre[t];
    }
    stencil(2 * k, k) = std::clamp(centre[k] + step, 0.0, 1.0);
    stencil(2 * k + 1, k) = std::clamp(centre[k] - step, 0.0, 1.0);
  }
  if (box) {
    for (size_t r = 0; r < 2 * d; ++r) {
      for (size_t t = 0; t < d; ++t) {
        stencil(r, t) = std::clamp(stencil(r, t), 0.3, 0.7);
      }
    }
  }
  return stencil;
}

TEST(SimdTest, StencilFillKeepsRowFillBits) {
  // Every d mod 4 tail (the changed column in a chain or in the tail),
  // every group tail of four training rows, three stencil layouts and
  // lengthscales short enough that most values flush to zero. The layouts:
  // a plain stencil; one whose centre sits on a training row with every
  // other coordinate on a face of the box, so half the clamped rows equal
  // the centre and r = 0 occurs; and a trust-region-projected one.
  const size_t kRows[] = {1, 2, 3, 5, 30, 80};
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  Rng rng(110);
  size_t cases = 0;
  for (simd::Tier tier : tiers) {
    ASSERT_EQ(simd::ForceTierForTest(tier), tier);
    for (size_t d = 2; d <= 17; ++d) {
      for (bool matern : {true, false}) {
        for (bool flush : {false, true}) {
          const std::unique_ptr<Kernel> kernel =
              flush ? ArdKernel(matern, d, 1e-4, 2e-3, &rng)
                    : ArdKernel(matern, d, 0.05, 2.0, &rng);
          for (size_t n : kRows) {
            for (int layout = 0; layout < 3; ++layout) {
              SCOPED_TRACE(::testing::Message()
                           << simd::TierName(tier) << " " << kernel->name()
                           << " d=" << d << " n=" << n << " layout "
                           << layout << (flush ? " flushing" : ""));
              Matrix x = RandomMatrix(n, d, &rng);
              Vector centre = RandomVector(d, &rng);
              for (double& v : centre) v = 0.5 + 0.25 * v;
              if (layout == 1) {
                for (size_t t = 0; t < d; t += 2) {
                  centre[t] = static_cast<double>((t / 2) % 2);
                }
                for (size_t t = 0; t < d; ++t) x(n - 1, t) = centre[t];
              }
              const Matrix stencil =
                  CoordinateStencil(centre, 0.1 + 0.05 * layout, layout == 2);
              const size_t m = 2 * d, stride = m + 1;
              // The whole fill, and the same rows in two calls split at a
              // row that is not a multiple of the lane count.
              std::vector<double> whole(n * stride), split(n * stride);
              kernel->EvalStencil(x.RowPtr(0), d, n, stencil.RowPtr(0), d,
                                  whole.data(), stride);
              const size_t cut = n / 3;
              kernel->EvalStencil(x.RowPtr(0), d, cut, stencil.RowPtr(0), d,
                                  split.data(), stride);
              kernel->EvalStencil(x.RowPtr(cut), d, n - cut,
                                  stencil.RowPtr(0), d,
                                  split.data() + cut * stride, stride);
              Vector want(m);
              for (size_t i = 0; i < n; ++i) {
                kernel->EvalRow(x.RowPtr(i), stencil.RowPtr(0), d, m,
                                want.data());
                for (size_t r = 0; r < m; ++r) {
                  ASSERT_EQ(Bits(whole[i * stride + r]), Bits(want[r]))
                      << "training row " << i << ", stencil row " << r
                      << ": " << whole[i * stride + r] << " vs " << want[r];
                  ASSERT_EQ(Bits(split[i * stride + r]), Bits(want[r]))
                      << "split training row " << i << ", stencil row " << r;
                }
              }
              ++cases;
            }
          }
        }
      }
    }
  }
  simd::ResetTierForTest();
  EXPECT_EQ(cases, tiers.size() * 16 * 2 * 2 * 6 * 3);
}

TEST(SimdTest, GramMatrixMatchesAcrossTiers) {
  Rng rng(106);
  for (size_t n : {3u, 16u, 33u}) {
    const Matrix x = RandomMatrix(n, 14, &rng);
    const Matern52Kernel kernel(14, 0.5, 1.0);
    std::vector<double> s, v;
    CompareTiers(
        [&] {
          const Matrix k = kernel.GramMatrix(x);
          std::vector<double> flat;
          for (size_t r = 0; r < n; ++r) {
            for (size_t c = 0; c < n; ++c) flat.push_back(k(r, c));
          }
          return flat;
        },
        &s, &v);
    ExpectClose(s, v);
  }
}

TEST(SimdTest, CholeskySolvesMatchAcrossTiers) {
  Rng rng(107);
  for (size_t n : {4u, 15u, 48u}) {
    // Build an SPD matrix A = B B^T + n I.
    const Matrix b = RandomMatrix(n, n, &rng);
    Matrix a(n, n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        double sum = i == j ? static_cast<double>(n) : 0.0;
        for (size_t k = 0; k < n; ++k) sum += b(i, k) * b(j, k);
        a(i, j) = sum;
      }
    }
    const Matrix rhs = RandomMatrix(n, 33, &rng);
    const Vector vec_rhs = RandomVector(n, &rng);
    std::vector<double> s, v;
    CompareTiers(
        [&] {
          const Cholesky chol = Cholesky::Factor(a).value();
          const Matrix y = chol.SolveLowerMatrix(rhs);
          const Vector x1 = chol.Solve(vec_rhs);
          const Vector diag = chol.InverseDiagonal();
          std::vector<double> flat;
          for (size_t r = 0; r < y.rows(); ++r) {
            for (size_t c = 0; c < y.cols(); ++c) flat.push_back(y(r, c));
          }
          flat.insert(flat.end(), x1.begin(), x1.end());
          flat.insert(flat.end(), diag.begin(), diag.end());
          return flat;
        },
        &s, &v);
    ExpectClose(s, v, 1e-11);
  }
}

TEST(SimdTest, ActiveTierIsDeterministicAcrossPoolSizes) {
  // Within ANY dispatch tier, batch prediction must be bitwise identical
  // for every pool size — the serial-vs-parallel determinism contract.
  Rng rng(108);
  const size_t n = 65;
  const size_t d = 14;
  const Matrix x = RandomMatrix(n, d, &rng);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) y[i] = rng.Gaussian();
  GpOptions options;
  options.optimize_hyperparams = false;
  GpModel model(d, options);
  ASSERT_TRUE(model.Fit(x, y).ok());
  const Matrix queries = RandomMatrix(37, d, &rng);

  ThreadPool serial(1);
  ThreadPool wide(4);
  const std::vector<GpPrediction> a = model.PredictBatch(queries, &serial);
  const std::vector<GpPrediction> b = model.PredictBatch(queries, &wide);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean, b[i].mean) << "mean diverges at " << i;
    EXPECT_EQ(a[i].variance, b[i].variance) << "variance diverges at " << i;
  }
}

TEST(SimdTest, DispatchReportsATier) {
  const simd::Tier tier = simd::ActiveTier();
  EXPECT_TRUE(tier == simd::Tier::kScalar || tier == simd::Tier::kAvx2);
  EXPECT_STRNE(simd::TierName(tier), "");
#if defined(RESTUNE_SIMD_DISABLED)
  EXPECT_EQ(tier, simd::Tier::kScalar);
#endif
}

}  // namespace
}  // namespace restune
