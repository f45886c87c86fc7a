#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/decision_tree.h"
#include "ml/quantile_forest.h"
#include "ml/random_forest.h"
#include "ml/sql_tokens.h"
#include "ml/tfidf.h"

namespace restune {
namespace {

// ------------------------------------------------------------- SQL tokens

TEST(SqlTokensTest, ExtractsReservedWordsInOrder) {
  const auto words =
      ExtractReservedWords("SELECT c FROM sbtest1 WHERE id=42 ORDER BY c");
  EXPECT_EQ(words, (std::vector<std::string>{"SELECT", "FROM", "WHERE",
                                             "ORDER", "BY"}));
}

TEST(SqlTokensTest, CaseInsensitive) {
  const auto words = ExtractReservedWords("select * from t where x in (1)");
  EXPECT_EQ(words[0], "SELECT");
  EXPECT_EQ(words.back(), "IN");
}

TEST(SqlTokensTest, DropsIdentifiersAndLiterals) {
  const auto words = ExtractReservedWords(
      "UPDATE warehouse SET w_ytd = w_ytd + 42 WHERE w_id = 7");
  EXPECT_EQ(words,
            (std::vector<std::string>{"UPDATE", "SET", "WHERE"}));
}

TEST(SqlTokensTest, IgnoresKeywordsInsideStringLiterals) {
  const auto words = ExtractReservedWords(
      "INSERT INTO t (c) VALUES ('please SELECT me FROM here')");
  EXPECT_EQ(words,
            (std::vector<std::string>{"INSERT", "INTO", "VALUES"}));
}

TEST(SqlTokensTest, HandlesEscapedQuotes) {
  const auto words =
      ExtractReservedWords("INSERT INTO t VALUES ('it\\'s SELECT')");
  EXPECT_EQ(words,
            (std::vector<std::string>{"INSERT", "INTO", "VALUES"}));
}

TEST(SqlTokensTest, DictionaryIsSmallAndQueryable) {
  const auto& dict = SqlReservedWordDictionary();
  EXPECT_GT(dict.size(), 30u);
  EXPECT_LT(dict.size(), 100u);  // the point of the paper's design
  EXPECT_TRUE(IsSqlReservedWord("select"));
  EXPECT_TRUE(IsSqlReservedWord("DISTINCT"));
  EXPECT_FALSE(IsSqlReservedWord("sbtest1"));
}

// ----------------------------------------------------------------- TF-IDF

TEST(TfIdfTest, RejectsEmptyCorpus) {
  TfIdfVectorizer v;
  EXPECT_FALSE(v.Fit({}).ok());
}

TEST(TfIdfTest, VocabularyFromCorpus) {
  TfIdfVectorizer v;
  ASSERT_TRUE(v.Fit({{"SELECT", "FROM"}, {"UPDATE", "SET"}}).ok());
  EXPECT_EQ(v.vocabulary_size(), 4u);
  EXPECT_GE(v.TokenIndex("SELECT"), 0);
  EXPECT_EQ(v.TokenIndex("DELETE"), -1);
}

TEST(TfIdfTest, OutputIsL2Normalized) {
  TfIdfVectorizer v;
  ASSERT_TRUE(v.Fit({{"SELECT", "FROM", "WHERE"},
                     {"UPDATE", "SET", "WHERE"},
                     {"INSERT", "INTO"}})
                  .ok());
  const Vector x = v.Transform({"SELECT", "FROM", "WHERE"});
  double norm = 0;
  for (double e : x) norm += e * e;
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(TfIdfTest, RareTokensWeighHigher) {
  TfIdfVectorizer v;
  // WHERE appears in every doc, DISTINCT in one.
  ASSERT_TRUE(v.Fit({{"WHERE", "DISTINCT"},
                     {"WHERE", "SELECT"},
                     {"WHERE", "UPDATE"}})
                  .ok());
  const Vector x = v.Transform({"WHERE", "DISTINCT"});
  EXPECT_GT(x[v.TokenIndex("DISTINCT")], x[v.TokenIndex("WHERE")]);
}

TEST(TfIdfTest, UnknownTokensIgnored) {
  TfIdfVectorizer v;
  ASSERT_TRUE(v.Fit({{"SELECT"}, {"UPDATE"}}).ok());
  const Vector x = v.Transform({"NOPE", "NADA"});
  for (double e : x) EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(TfIdfTest, DeterministicVocabularyOrder) {
  TfIdfVectorizer a, b;
  ASSERT_TRUE(a.Fit({{"B", "A"}, {"C"}}).ok());
  ASSERT_TRUE(b.Fit({{"C"}, {"A", "B"}}).ok());
  // Sorted vocabulary: same token -> same index regardless of corpus order.
  EXPECT_EQ(a.TokenIndex("A"), b.TokenIndex("A"));
  EXPECT_EQ(a.TokenIndex("C"), b.TokenIndex("C"));
}

// ---------------------------------------------------------- DecisionTree

Matrix XorFeatures() {
  return Matrix::FromRows({{0, 0}, {0, 1}, {1, 0}, {1, 1},
                           {0.1, 0.1}, {0.1, 0.9}, {0.9, 0.1}, {0.9, 0.9}});
}

std::vector<int> XorLabels() { return {0, 1, 1, 0, 0, 1, 1, 0}; }

TEST(DecisionTreeTest, LearnsAxisAlignedConjunction) {
  // y = 1 iff x0 > 0.5 AND x1 > 0.5 — needs a two-level tree.
  Rng rng(1);
  const size_t n = 200;
  Matrix x(n, 2);
  std::vector<int> y(n);
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = (x(i, 0) > 0.5 && x(i, 1) > 0.5) ? 1 : 0;
    all[i] = i;
  }
  DecisionTree tree;
  DecisionTreeOptions options;
  options.min_samples_leaf = 1;
  options.min_samples_split = 2;
  options.max_features = 2;
  ASSERT_TRUE(tree.Fit(x, y, 2, all, &rng, options).ok());
  EXPECT_EQ(tree.Predict({0.9, 0.9}), 1);
  EXPECT_EQ(tree.Predict({0.9, 0.1}), 0);
  EXPECT_EQ(tree.Predict({0.1, 0.9}), 0);
  EXPECT_EQ(tree.Predict({0.1, 0.1}), 0);
  EXPECT_GT(tree.num_nodes(), 3u);  // actually split, not a single leaf
}

TEST(DecisionTreeTest, ProbabilitiesSumToOne) {
  DecisionTree tree;
  Rng rng(1);
  std::vector<size_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(tree.Fit(XorFeatures(), XorLabels(), 2, all, &rng).ok());
  const Vector p = tree.PredictProba({0.5, 0.5});
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  DecisionTree tree;
  Rng rng(1);
  std::vector<size_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  DecisionTreeOptions options;
  options.max_depth = 0;  // root must be a leaf
  ASSERT_TRUE(tree.Fit(XorFeatures(), XorLabels(), 2, all, &rng, options).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(DecisionTreeTest, InputValidation) {
  DecisionTree tree;
  Rng rng(1);
  EXPECT_FALSE(tree.Fit(XorFeatures(), {0, 1}, 2, {0, 1}, &rng).ok());
  EXPECT_FALSE(
      tree.Fit(XorFeatures(), XorLabels(), 1, {0, 1, 2}, &rng).ok());
  EXPECT_FALSE(tree.Fit(XorFeatures(), XorLabels(), 2, {}, &rng).ok());
  EXPECT_FALSE(tree.Fit(XorFeatures(), XorLabels(), 2, {99}, &rng).ok());
}

// ---------------------------------------------------------- RandomForest

TEST(RandomForestTest, SeparatesGaussianBlobs) {
  Rng rng(9);
  const size_t n = 200;
  Matrix x(n, 2);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    x(i, 0) = rng.Gaussian(cls == 0 ? -1.0 : 1.0, 0.4);
    x(i, 1) = rng.Gaussian(cls == 0 ? 1.0 : -1.0, 0.4);
    y[i] = cls;
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y, 2).ok());
  EXPECT_EQ(forest.Predict({-1.0, 1.0}), 0);
  EXPECT_EQ(forest.Predict({1.0, -1.0}), 1);
  EXPECT_GT(forest.oob_accuracy(), 0.9);
}

TEST(RandomForestTest, ProbaAveragesAcrossTrees) {
  Rng rng(9);
  Matrix x(40, 1);
  std::vector<int> y(40);
  for (size_t i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<double>(i) / 40.0;
    y[i] = i < 20 ? 0 : 1;
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y, 2).ok());
  const Vector p = forest.PredictProba({0.25});
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_GT(p[0], p[1]);
}

TEST(RandomForestTest, DeterministicForAnyPoolSize) {
  Rng rng(4);
  const size_t n = 150;
  Matrix x(n, 3);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < 3; ++c) x(i, c) = rng.Uniform();
    y[i] = static_cast<int>(3.0 * x(i, 0)) % 3;
  }
  ThreadPool serial(1);
  ThreadPool wide(4);
  RandomForest a, b;
  ASSERT_TRUE(a.Fit(x, y, 3, &serial).ok());
  ASSERT_TRUE(b.Fit(x, y, 3, &wide).ok());
  EXPECT_EQ(a.oob_accuracy(), b.oob_accuracy());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.PredictProba(x.Row(i)), b.PredictProba(x.Row(i)))
        << "row " << i;
  }
}

TEST(RandomForestTest, RejectsEmptyInput) {
  RandomForest forest;
  EXPECT_FALSE(forest.Fit(Matrix(), {}, 2).ok());
}

TEST(LogCostClassTest, LogSpacedBuckets) {
  // Costs spanning three decades over 6 classes.
  EXPECT_EQ(LogCostClass(1.0, 1.0, 1000.0, 6), 0);
  EXPECT_EQ(LogCostClass(1000.0, 1.0, 1000.0, 6), 5);
  // sqrt(1000) ~ middle of the log range.
  EXPECT_EQ(LogCostClass(31.6, 1.0, 1000.0, 6), 2);
  // Clamping outside the range.
  EXPECT_EQ(LogCostClass(0.001, 1.0, 1000.0, 6), 0);
  EXPECT_EQ(LogCostClass(1e9, 1.0, 1000.0, 6), 5);
}

TEST(LogCostClassTest, SkewedValuesSpreadAcrossClasses) {
  // A heavily skewed cost distribution still occupies several classes
  // thanks to the log transform (the paper's rationale).
  std::set<int> classes;
  for (double cost : {1.0, 2.0, 5.0, 20.0, 100.0, 900.0}) {
    classes.insert(LogCostClass(cost, 1.0, 1000.0, 8));
  }
  EXPECT_GE(classes.size(), 5u);
}

// ------------------------------------------------------- QuantileForest

// A smooth 2-D response with a unique minimum at (0.3, 0.7) — easy for any
// regressor, so the tests below check machinery, not model power.
double Bowl(double a, double b) {
  return (a - 0.3) * (a - 0.3) + (b - 0.7) * (b - 0.7);
}

// `n` uniform points of the unit square and their bowl values.
void BowlSamples(size_t n, uint64_t seed, Matrix* x, Vector* y) {
  Rng rng(seed);
  *x = Matrix(n, 2);
  *y = Vector(n);
  for (size_t i = 0; i < n; ++i) {
    (*x)(i, 0) = rng.Uniform();
    (*x)(i, 1) = rng.Uniform();
    (*y)[i] = Bowl((*x)(i, 0), (*x)(i, 1));
  }
}

TEST(QuantileForestTest, RejectsBadInputs) {
  QuantileForest forest;
  Matrix x(4, 2, 0.5);
  Vector y(3, 1.0);
  EXPECT_FALSE(forest.Fit(x, y).ok());  // size mismatch
  EXPECT_FALSE(forest.Fit(Matrix(), Vector()).ok());
  EXPECT_FALSE(forest.fitted());
}

TEST(QuantileForestTest, LearnsASmoothSurface) {
  Matrix x;
  Vector y;
  BowlSamples(400, 21, &x, &y);
  QuantileForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_TRUE(forest.fitted());
  EXPECT_EQ(forest.dim(), 2u);
  EXPECT_EQ(forest.num_observations(), 400u);

  // Interior predictions land near the true surface, and the minimum region
  // scores lower than the far corner.
  const ForestPrediction near_min = forest.Predict({0.3, 0.7});
  const ForestPrediction corner = forest.Predict({0.95, 0.05});
  EXPECT_NEAR(near_min.mean, Bowl(0.3, 0.7), 0.05);
  EXPECT_GT(corner.mean, near_min.mean);
  EXPECT_GE(near_min.variance, 0.0);
  EXPECT_GE(corner.variance, 0.0);
}

TEST(QuantileForestTest, DeterministicForAnyPoolSize) {
  Matrix x;
  Vector y;
  BowlSamples(200, 33, &x, &y);
  ThreadPool serial(1);
  ThreadPool wide(4);
  QuantileForest a, b;
  ASSERT_TRUE(a.Fit(x, y, &serial).ok());
  ASSERT_TRUE(b.Fit(x, y, &wide).ok());

  Matrix queries(32, 2);
  Rng rng(5);
  for (size_t r = 0; r < 32; ++r) {
    queries(r, 0) = rng.Uniform();
    queries(r, 1) = rng.Uniform();
  }
  const std::vector<ForestPrediction> pa = a.PredictBatch(queries, &serial);
  const std::vector<ForestPrediction> pb = b.PredictBatch(queries, &wide);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].mean, pb[i].mean) << "mean diverges at " << i;
    EXPECT_EQ(pa[i].variance, pb[i].variance) << "variance diverges at " << i;
  }
}

TEST(QuantileForestTest, QuantilesAreMonotonic) {
  Matrix x;
  Vector y;
  BowlSamples(300, 44, &x, &y);
  QuantileForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  const Vector q = {0.5, 0.5};
  const double p10 = forest.PredictQuantile(q, 0.1);
  const double p50 = forest.PredictQuantile(q, 0.5);
  const double p90 = forest.PredictQuantile(q, 0.9);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p90);
}

}  // namespace
}  // namespace restune
