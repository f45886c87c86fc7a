#ifndef RESTUNE_BO_BATCH_H_
#define RESTUNE_BO_BATCH_H_

#include <vector>

#include "linalg/matrix.h"

namespace restune {

/// Multiplicative local penalization: damps `values[r]` toward zero as row r
/// of `thetas` approaches any point in `points`, reaching zero at distance 0
/// and full strength at `radius`. The suggestion step applies it around
/// pending (in-flight) configurations, so speculative proposals diversify
/// instead of collapsing onto an evaluation still under way.
void PenalizeNearPoints(const Matrix& thetas, const std::vector<Vector>& points,
                        double radius, std::vector<double>* values);

}  // namespace restune

#endif  // RESTUNE_BO_BATCH_H_
