#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace restune {

RandomForest::RandomForest(RandomForestOptions options)
    : options_(options) {}

Status RandomForest::Fit(const Matrix& x, const std::vector<int>& y,
                         int num_classes, ThreadPool* pool) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("x rows and y size differ");
  }
  if (x.rows() == 0) return Status::InvalidArgument("empty training set");
  trees_.clear();
  num_classes_ = num_classes;
  Rng rng(options_.seed);

  const size_t n = x.rows();
  const size_t num_trees =
      options_.num_trees > 0 ? static_cast<size_t>(options_.num_trees) : 0;
  // Draw every tree's bootstrap and generator first, in the order one
  // tree after another draws them; then grow the trees as one pool loop,
  // each into its own slot, so the forest has the same bits at any pool
  // size.
  std::vector<std::vector<size_t>> bootstraps(num_trees,
                                              std::vector<size_t>(n));
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(num_trees);
  for (std::vector<size_t>& bootstrap : bootstraps) {
    for (size_t& row : bootstrap) row = static_cast<size_t>(rng.UniformInt(n));
    tree_rngs.push_back(rng.Fork());
  }
  trees_.resize(num_trees);
  std::vector<Status> grown(num_trees);
  ResolvePool(pool)->ParallelFor(num_trees, [&](size_t t) {
    grown[t] = trees_[t].Fit(x, y, num_classes, bootstraps[t], &tree_rngs[t],
                             options_.tree);
  });

  // votes[i][c]: out-of-bag votes for class c on sample i, summed in tree
  // order.
  std::vector<std::vector<double>> oob_votes(n,
                                             std::vector<double>(num_classes));
  std::vector<bool> in_bag(n);
  for (size_t t = 0; t < num_trees; ++t) {
    if (!grown[t].ok()) {
      trees_.clear();
      return grown[t];
    }
    std::fill(in_bag.begin(), in_bag.end(), false);
    for (size_t row : bootstraps[t]) in_bag[row] = true;
    for (size_t i = 0; i < n; ++i) {
      if (in_bag[i]) continue;
      const Vector proba = trees_[t].PredictProba(x.Row(i));
      for (int c = 0; c < num_classes; ++c) oob_votes[i][c] += proba[c];
    }
  }

  size_t evaluated = 0, correct = 0;
  for (size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (double v : oob_votes[i]) total += v;
    if (total <= 0.0) continue;  // sample was in every bag
    ++evaluated;
    const int pred = static_cast<int>(
        std::max_element(oob_votes[i].begin(), oob_votes[i].end()) -
        oob_votes[i].begin());
    if (pred == y[i]) ++correct;
  }
  oob_accuracy_ = evaluated > 0
                      ? static_cast<double>(correct) /
                            static_cast<double>(evaluated)
                      : 0.0;
  return Status::OK();
}

Vector RandomForest::PredictProba(const Vector& features) const {
  assert(fitted());
  Vector proba(num_classes_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const Vector p = tree.PredictProba(features);
    for (int c = 0; c < num_classes_; ++c) proba[c] += p[c];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& p : proba) p *= inv;
  return proba;
}

int RandomForest::Predict(const Vector& features) const {
  const Vector proba = PredictProba(features);
  return static_cast<int>(std::max_element(proba.begin(), proba.end()) -
                          proba.begin());
}

int LogCostClass(double cost, double min_cost, double max_cost,
                 int num_classes) {
  cost = std::clamp(cost, min_cost, max_cost);
  const double lo = std::log(min_cost);
  const double hi = std::log(max_cost);
  if (hi <= lo) return 0;
  const double t = (std::log(cost) - lo) / (hi - lo);
  const int cls = static_cast<int>(t * num_classes);
  return std::clamp(cls, 0, num_classes - 1);
}

}  // namespace restune
