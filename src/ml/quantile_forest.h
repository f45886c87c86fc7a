#ifndef RESTUNE_ML_QUANTILE_FOREST_H_
#define RESTUNE_ML_QUANTILE_FOREST_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace restune {

class ThreadPool;

/// Options for the quantile regression forest.
struct QuantileForestOptions {
  int num_trees = 24;
  int max_depth = 16;
  int min_samples_leaf = 4;
  int min_samples_split = 8;
  /// Random (feature, threshold) pairs scored per node, extra-trees style:
  /// thresholds are drawn uniformly inside the node's feature range instead
  /// of exhaustively scanned, which keeps fitting O(n log n)-ish and
  /// decorrelates the trees without bootstrap resampling.
  int num_candidate_splits = 12;
  uint64_t seed = 11;
};

/// Mean/variance summary of the forest posterior at one query point.
struct ForestPrediction {
  double mean = 0.0;
  double variance = 0.0;
};

/// Quantile regression forest (Meinshausen-style): an extra-trees ensemble
/// whose leaves keep their training samples, so any posterior quantile —
/// not just the mean — can be read off the pooled leaf distribution. Where
/// GP inference scales O(n^2) per candidate, a forest walk touches
/// `num_trees * depth` nodes. No advisor uses it yet: it waits for a
/// measured place as a `Surrogate` behind the suggestion step (ROADMAP
/// item 5).
///
/// Mean and variance come from the law of total variance across trees
/// (mean of leaf variances + variance of leaf means), which behaves like a
/// crude posterior: pure leaves deep in well-sampled regions report small
/// variance, disagreeing trees report large.
///
/// Determinism: trees are grown from independently forked generators in a
/// fixed order and fitted over the pool with one tree per slot, so results
/// are bitwise identical for any pool size.
class QuantileForest {
 public:
  explicit QuantileForest(QuantileForestOptions options = {});

  /// Fits the ensemble on rows of `x` against targets `y`. Trees are
  /// distributed over `pool` (null = shared pool).
  Status Fit(const Matrix& x, const Vector& y, ThreadPool* pool = nullptr);

  /// Forest posterior (mean, variance) at one point.
  ForestPrediction Predict(const Vector& features) const;

  /// Forest posterior at every row of `x`, distributed over `pool`.
  std::vector<ForestPrediction> PredictBatch(const Matrix& x,
                                             ThreadPool* pool = nullptr) const;

  /// `quantile`-th (in [0, 1]) value of the pooled leaf distribution at
  /// `features` — the quantile-forest read-out (e.g. 0.9 for a pessimistic
  /// latency estimate).
  double PredictQuantile(const Vector& features, double quantile) const;

  bool fitted() const { return !trees_.empty(); }
  size_t dim() const { return dim_; }
  size_t num_observations() const { return y_.size(); }

 private:
  struct Node {
    // Internal node: feature < threshold -> left, else right.
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    // Leaf payload: moment summary plus the sample range in the owning
    // tree's leaf_indices (for quantiles).
    double mean = 0.0;
    double variance = 0.0;
    size_t begin = 0;
    size_t end = 0;
    bool IsLeaf() const { return feature < 0; }
  };

  struct Tree {
    std::vector<Node> nodes;
    /// Training-row indices grouped contiguously by leaf.
    std::vector<size_t> leaf_indices;
  };

  int BuildNode(const Matrix& x, std::vector<size_t>* indices, size_t begin,
                size_t end, int depth, Rng* rng, Tree* tree) const;
  const Node& LeafFor(const Tree& tree, const double* features) const;

  QuantileForestOptions options_;
  size_t dim_ = 0;
  Vector y_;  // training targets, shared by all trees' leaf index ranges
  std::vector<Tree> trees_;
};

}  // namespace restune

#endif  // RESTUNE_ML_QUANTILE_FOREST_H_
