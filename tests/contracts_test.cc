// Death tests for the contract layer (src/common/contracts.h) and for the
// previously silent bad-input paths it now guards. Each EXPECT_DEATH matches
// on "RESTUNE CHECK failed" plus a fragment of the actionable context, so
// the tests pin both *that* a contract fires and *what* it tells the user.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "bo/acq_optimizer.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "gp/gp_model.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace restune {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class ContractsTest : public testing::Test {
 protected:
  void SetUp() override {
    // Death tests fork; the threadsafe style re-executes the test binary so
    // the child does not inherit a half-cloned ThreadPool state.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

// ---- Macro semantics ------------------------------------------------------

TEST_F(ContractsTest, PassingCheckIsANoOp) {
  RESTUNE_CHECK(1 + 1 == 2) << "never evaluated";
  RESTUNE_CHECK_FINITE(3.5);
  RESTUNE_CHECK_PSD_HINT(1e-12, 0);
  RESTUNE_CHECK_OK(Status::OK());
}

TEST_F(ContractsTest, StreamedContextOnlyEvaluatesOnFailure) {
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return "ctx";
  };
  RESTUNE_CHECK(true) << count();
  EXPECT_EQ(evaluations, 0);
}

TEST_F(ContractsTest, FailedCheckPrintsConditionLocationAndContext) {
  EXPECT_DEATH(RESTUNE_CHECK(2 < 1) << "extra " << 42,
               "RESTUNE CHECK failed: 2 < 1 at .*contracts_test\\.cc:"
               "[0-9]+: extra 42");
}

TEST_F(ContractsTest, CheckOkPrintsTheStatusMessage) {
  EXPECT_DEATH(RESTUNE_CHECK_OK(Status::IoError("disk on fire")),
               "RESTUNE CHECK failed: .*disk on fire");
}

TEST_F(ContractsTest, CheckFinitePrintsTheOffendingValue) {
  EXPECT_DEATH(RESTUNE_CHECK_FINITE(kNan), "RESTUNE CHECK failed: .*= nan");
  EXPECT_DEATH(RESTUNE_CHECK_FINITE(-kInf), "RESTUNE CHECK failed: .*= -inf");
}

TEST_F(ContractsTest, PsdHintNamesThePivotAndSuggestsJitter) {
  EXPECT_DEATH(RESTUNE_CHECK_PSD_HINT(-0.25, 7),
               "not positive definite at pivot 7 .*increase jitter");
}

// ---- DCHECK cost model ----------------------------------------------------

#ifndef NDEBUG
TEST_F(ContractsTest, DcheckFiresInDebugBuilds) {
  EXPECT_DEATH(RESTUNE_DCHECK(false) << "debug contract",
               "RESTUNE CHECK failed: false.*debug contract");
  std::vector<double> poisoned = {1.0, kNan};
  EXPECT_DEATH(RESTUNE_DCHECK_ALL_FINITE(poisoned), "non-finite element");
}
#else
TEST_F(ContractsTest, DcheckConditionIsNotEvaluatedInReleaseBuilds) {
  int evaluations = 0;
  auto evaluated = [&evaluations]() {
    ++evaluations;
    return false;  // would be fatal if the condition were live
  };
  RESTUNE_DCHECK(evaluated()) << "never printed";
  RESTUNE_DCHECK_FINITE(kNan);
  std::vector<double> poisoned = {kNan};
  RESTUNE_DCHECK_ALL_FINITE(poisoned);
  EXPECT_EQ(evaluations, 0);
}
#endif

// ---- Previously silent bad-input paths ------------------------------------

// Pre-contract, a negative jitter silently *subtracted* from the diagonal and
// either failed late or produced a wrong factor. Now it fails at the call
// site with the offending value.
TEST_F(ContractsTest, NegativeJitterDiesInsteadOfCorruptingTheFactor) {
  const Matrix a = Matrix::Identity(3);
  EXPECT_DEATH(Cholesky::FactorWithJitter(a, -1e-6).status(),
               "RESTUNE CHECK failed: jitter >= 0");
  EXPECT_DEATH(Cholesky::FactorWithJitter(a, kNan).status(),
               "RESTUNE CHECK failed: jitter >= 0");
  EXPECT_DEATH(Cholesky::FactorWithJitter(a, 1e-10, -1).status(),
               "RESTUNE CHECK failed: max_attempts >= 0");
}

// A non-PD matrix is a *recoverable* condition, not a contract violation:
// it must come back as a Status the caller can handle with more jitter.
TEST_F(ContractsTest, NonPsdMatrixIsAStatusNotACrash) {
  Matrix a = Matrix::Identity(2);
  a(0, 0) = -1.0;
  a(1, 1) = -1.0;
  EXPECT_FALSE(Cholesky::Factor(a).ok());
}

// Pre-contract, Predict on an unfitted GP was `assert` — compiled out in
// Release, where it read empty matrices as undefined behavior.
TEST_F(ContractsTest, UnfittedGpPredictDiesWithActionableMessage) {
  const GpModel gp(2);
  const Vector x = {0.5, 0.5};
  EXPECT_DEATH(gp.Predict(x), "unfitted GP; call Fit");
  EXPECT_DEATH(gp.PredictMean(x), "unfitted GP");
  Matrix batch(1, 2);
  EXPECT_DEATH(gp.PredictBatch(batch), "unfitted GP");
  EXPECT_DEATH(gp.PredictMeanBatch(batch), "unfitted GP");
  EXPECT_DEATH(gp.LogMarginalLikelihood(), "fitted GP");
}

/// One value per row of every block, `value(rows)` for a block of `rows`.
std::vector<std::vector<double>> ScoreBlocks(
    const std::vector<Matrix>& blocks,
    const std::function<double(size_t)>& value) {
  std::vector<std::vector<double>> values;
  for (const Matrix& block : blocks) {
    values.emplace_back(block.rows(), value(block.rows()));
  }
  return values;
}

// Pre-contract, a NaN acquisition value silently lost every comparison in
// the argmax, steering the optimizer to an arbitrary candidate with no
// diagnostic. -inf stays legal: the reject hook uses it to veto candidates.
TEST_F(ContractsTest, NanAcquisitionValueDiesInsteadOfBiasingArgmax) {
  ThreadPool pool(1);
  Rng rng(42);
  AcqOptimizerOptions options;
  options.pool = &pool;
  options.num_candidates = 8;
  options.num_refine = 1;
  const BatchAcquisitionFn nan_acq = [](const std::vector<Matrix>& blocks) {
    return ScoreBlocks(blocks, [](size_t) { return kNan; });
  };
  EXPECT_DEATH(MaximizeAcquisitionBatch(nan_acq, 2, &rng, options),
               "RESTUNE CHECK failed: .*isnan");

  const BatchAcquisitionFn neg_inf_acq =
      [](const std::vector<Matrix>& blocks) {
        return ScoreBlocks(blocks, [](size_t) { return -kInf; });
      };
  const Vector best = MaximizeAcquisitionBatch(neg_inf_acq, 2, &rng, options);
  EXPECT_EQ(best.size(), 2u);  // all-vetoed sweep still returns a point
}

// The refinement stencils meet the sweep's checks: a NaN that appears only
// in stencil rows (4 rows for 2 knobs; the sweep blocks are larger) dies and
// names its stencil row instead of silently never winning.
TEST_F(ContractsTest, NanStencilValueDiesInsteadOfLosingEveryComparison) {
  ThreadPool pool(1);
  Rng rng(42);
  AcqOptimizerOptions options;
  options.pool = &pool;
  options.num_candidates = 8;
  options.num_refine = 2;
  const BatchAcquisitionFn nan_stencils =
      [](const std::vector<Matrix>& blocks) {
        return ScoreBlocks(blocks,
                           [](size_t rows) { return rows == 4 ? kNan : 0.5; });
      };
  EXPECT_DEATH(MaximizeAcquisitionBatch(nan_stencils, 2, &rng, options),
               "RESTUNE CHECK failed: .*isnan.*row 0 of stencil block 0");
}

// An acquisition that returns the wrong number of values used to read out of
// bounds (or silently truncate); now it is a shape-contract failure.
TEST_F(ContractsTest, AcquisitionValueCountMismatchDies) {
  ThreadPool pool(1);
  Rng rng(7);
  AcqOptimizerOptions options;
  options.pool = &pool;
  options.num_candidates = 8;
  const BatchAcquisitionFn short_acq = [](const std::vector<Matrix>& blocks) {
    std::vector<std::vector<double>> values;
    for (const Matrix& block : blocks) values.emplace_back(block.rows() - 1);
    return values;
  };
  EXPECT_DEATH(MaximizeAcquisitionBatch(short_acq, 2, &rng, options),
               "RESTUNE CHECK failed: values.size\\(\\) == candidates.rows");
}

}  // namespace
}  // namespace restune
