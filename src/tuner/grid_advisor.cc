#include "tuner/grid_advisor.h"

#include <cmath>

namespace restune {

GridSearchAdvisor::GridSearchAdvisor(size_t dim, int points_per_dim)
    : dim_(dim), points_per_dim_(points_per_dim) {
  total_ = 1;
  for (size_t d = 0; d < dim_; ++d) {
    total_ *= static_cast<size_t>(points_per_dim_);
  }
}

Status GridSearchAdvisor::Begin(const Observation&, const SlaConstraints&) {
  next_index_ = 0;
  return Status::OK();
}

Result<Vector> GridSearchAdvisor::SuggestNextAsync(const SuggestionRequest&) {
  if (exhausted()) {
    return Status::OutOfRange("grid exhausted");
  }
  Vector theta(dim_);
  size_t index = next_index_++;
  for (size_t d = 0; d < dim_; ++d) {
    const size_t coord = index % static_cast<size_t>(points_per_dim_);
    index /= static_cast<size_t>(points_per_dim_);
    theta[d] = points_per_dim_ > 1
                   ? static_cast<double>(coord) /
                         static_cast<double>(points_per_dim_ - 1)
                   : 0.5;
  }
  return theta;
}

Status GridSearchAdvisor::Observe(const Observation&) { return Status::OK(); }

}  // namespace restune
