#include <gtest/gtest.h>

#include <cmath>

#include "analysis/shap.h"
#include "analysis/tco.h"

namespace restune {
namespace {

// ------------------------------------------------------------------- SHAP

TEST(ShapTest, EfficiencyPropertyHolds) {
  // Contributions must sum to f(current) - f(default) for any f.
  auto f = [](const Vector& x) {
    return 3.0 * x[0] - 2.0 * x[1] * x[1] + x[0] * x[2] + 1.0;
  };
  const Vector def = {0.0, 1.0, 2.0};
  const Vector cur = {1.0, 0.0, -1.0};
  const auto shap = ExactShapley(f, def, cur);
  ASSERT_TRUE(shap.ok());
  double sum = 0.0;
  for (double phi : shap->phi) sum += phi;
  EXPECT_NEAR(sum, shap->current_value - shap->base_value, 1e-9);
  EXPECT_NEAR(shap->base_value, f(def), 1e-12);
  EXPECT_NEAR(shap->current_value, f(cur), 1e-12);
}

TEST(ShapTest, AdditiveFunctionAttributesExactly) {
  // For an additive function each phi_i is exactly its own delta.
  auto f = [](const Vector& x) { return 2.0 * x[0] + 5.0 * x[1] - x[2]; };
  const Vector def = {1.0, 1.0, 1.0};
  const Vector cur = {3.0, 0.0, 4.0};
  const auto shap = ExactShapley(f, def, cur);
  ASSERT_TRUE(shap.ok());
  EXPECT_NEAR(shap->phi[0], 4.0, 1e-9);   // 2*(3-1)
  EXPECT_NEAR(shap->phi[1], -5.0, 1e-9);  // 5*(0-1)
  EXPECT_NEAR(shap->phi[2], -3.0, 1e-9);  // -(4-1)
}

TEST(ShapTest, NullFeatureGetsZero) {
  auto f = [](const Vector& x) { return x[0]; };
  const auto shap = ExactShapley(f, {0.0, 0.0}, {1.0, 1.0});
  ASSERT_TRUE(shap.ok());
  EXPECT_NEAR(shap->phi[1], 0.0, 1e-12);
}

TEST(ShapTest, SymmetryProperty) {
  // Symmetric features get equal attribution.
  auto f = [](const Vector& x) { return x[0] * x[1]; };
  const auto shap = ExactShapley(f, {0.0, 0.0}, {1.0, 1.0});
  ASSERT_TRUE(shap.ok());
  EXPECT_NEAR(shap->phi[0], shap->phi[1], 1e-12);
  EXPECT_NEAR(shap->phi[0], 0.5, 1e-12);
}

TEST(ShapTest, InputValidation) {
  auto f = [](const Vector&) { return 0.0; };
  EXPECT_FALSE(ExactShapley(f, {}, {}).ok());
  EXPECT_FALSE(ExactShapley(f, {0.0}, {0.0, 1.0}).ok());
  EXPECT_FALSE(ExactShapley(f, Vector(25, 0.0), Vector(25, 1.0)).ok());
}

// -------------------------------------------------------------------- TCO

TEST(TcoTest, CoresUsedRoundsUp) {
  EXPECT_EQ(CoresUsed(75.0, 48), 36);
  EXPECT_EQ(CoresUsed(11.25, 48), 6);   // 5.4 -> 6
  EXPECT_EQ(CoresUsed(0.0, 48), 0);
  EXPECT_EQ(CoresUsed(100.0, 48), 48);
  EXPECT_EQ(CoresUsed(150.0, 48), 48);  // clamped
}

TEST(TcoTest, AveragePerCoreMatchesPaperTable8) {
  // Table 8: SYSBENCH instance A saves 22 cores -> $8,749 average.
  const double avg = AverageCpuTcoReduction(43, 21);
  EXPECT_NEAR(avg, 8749.0, 80.0);
  // Instance B: 1 core -> $398.
  EXPECT_NEAR(AverageCpuTcoReduction(7, 6), 398.0, 5.0);
  // No change, no reduction.
  EXPECT_DOUBLE_EQ(AverageCpuTcoReduction(4, 4), 0.0);
}

TEST(TcoTest, MemoryPricesMatchPaperTable9) {
  // Table 9: SYSBENCH on E, 25.4 -> 12.64 GB.
  EXPECT_NEAR(MemoryTcoReduction(25.4, 12.64, CloudProvider::kAws), 983.0,
              5.0);
  EXPECT_NEAR(MemoryTcoReduction(25.4, 12.64, CloudProvider::kAzure), 855.0,
              5.0);
  EXPECT_NEAR(MemoryTcoReduction(25.4, 12.64, CloudProvider::kAliyun), 2144.0,
              5.0);
  // TPC-C on E, 22.5 -> 16.34 GB.
  EXPECT_NEAR(MemoryTcoReduction(22.5, 16.34, CloudProvider::kAliyun), 1035.0,
              5.0);
}

TEST(TcoTest, NegativeSavingsClampToZero) {
  EXPECT_DOUBLE_EQ(CpuTcoReduction(4, 8, CloudProvider::kAws), 0.0);
  EXPECT_DOUBLE_EQ(MemoryTcoReduction(10.0, 12.0, CloudProvider::kAzure),
                   0.0);
}

TEST(TcoTest, ProviderNames) {
  EXPECT_STREQ(CloudProviderName(CloudProvider::kAws), "AWS");
  EXPECT_STREQ(CloudProviderName(CloudProvider::kAzure), "Azure");
  EXPECT_STREQ(CloudProviderName(CloudProvider::kAliyun), "Aliyun");
}

}  // namespace
}  // namespace restune
