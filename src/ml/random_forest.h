#ifndef RESTUNE_ML_RANDOM_FOREST_H_
#define RESTUNE_ML_RANDOM_FOREST_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ml/decision_tree.h"

namespace restune {

class ThreadPool;

/// Random-forest options.
struct RandomForestOptions {
  int num_trees = 40;
  DecisionTreeOptions tree;
  uint64_t seed = 7;
};

/// Bagged ensemble of Gini decision trees, used by workload
/// characterization to classify each query's TF-IDF vector into a
/// resource-cost class (paper Section 6.2). The averaged predicted class
/// distribution over a workload's queries is that workload's meta-feature.
class RandomForest {
 public:
  explicit RandomForest(RandomForestOptions options = {});

  /// Fits `num_trees` trees on bootstrap resamples of (x, y); labels must be
  /// in [0, num_classes). The trees grow as one loop on `pool` (null = the
  /// shared pool); the forest has the same bits at any pool size.
  Status Fit(const Matrix& x, const std::vector<int>& y, int num_classes,
             ThreadPool* pool = nullptr);

  /// Mean class distribution over the trees.
  Vector PredictProba(const Vector& features) const;

  /// argmax of PredictProba.
  int Predict(const Vector& features) const;

  /// Out-of-bag accuracy estimate from the last Fit; NaN before fitting.
  double oob_accuracy() const { return oob_accuracy_; }

  bool fitted() const { return !trees_.empty(); }
  int num_classes() const { return num_classes_; }

 private:
  RandomForestOptions options_;
  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
  double oob_accuracy_ = 0.0;
};

/// Buckets a positive cost value into one of `num_classes` logarithmically
/// spaced classes over [min_cost, max_cost] — the paper's log-transform of
/// skewed cost labels before classification (Section 6.2).
int LogCostClass(double cost, double min_cost, double max_cost,
                 int num_classes);

}  // namespace restune

#endif  // RESTUNE_ML_RANDOM_FOREST_H_
