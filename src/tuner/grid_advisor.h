#ifndef RESTUNE_TUNER_GRID_ADVISOR_H_
#define RESTUNE_TUNER_GRID_ADVISOR_H_

#include <string>
#include <vector>

#include "tuner/advisor.h"

namespace restune {

/// Exhaustive grid search over the normalized knob space — the ground-truth
/// reference of the paper's case study (8x8x8 grid, Section 7.3).
class GridSearchAdvisor : public Advisor {
 public:
  /// Visits `points_per_dim`^dim configurations, the grid covering [0,1]
  /// endpoints inclusively.
  GridSearchAdvisor(size_t dim, int points_per_dim);

  const std::string& name() const override { return name_; }
  Status Begin(const Observation& default_observation,
               const SlaConstraints& sla) override;
  /// Ignores the request: the session core clamps grid points into an
  /// active trust region.
  Result<Vector> SuggestNextAsync(const SuggestionRequest& request) override;
  Status Observe(const Observation& observation) override;

  size_t total_points() const { return total_; }
  bool exhausted() const { return next_index_ >= total_; }

 private:
  std::string name_ = "GridSearch";
  size_t dim_;
  int points_per_dim_;
  size_t total_;
  size_t next_index_ = 0;
};

}  // namespace restune

#endif  // RESTUNE_TUNER_GRID_ADVISOR_H_
