#include "bo/batch.h"

#include <cmath>

namespace restune {

void PenalizeNearPoints(const Matrix& thetas, const std::vector<Vector>& points,
                        double radius, std::vector<double>* values) {
  if (points.empty() || radius <= 0.0) return;
  const double radius_sq = radius * radius;
  for (size_t r = 0; r < thetas.rows(); ++r) {
    for (const Vector& chosen : points) {
      double d2 = 0.0;
      for (size_t c = 0; c < thetas.cols(); ++c) {
        const double d = thetas(r, c) - chosen[c];
        d2 += d * d;
      }
      if (d2 < radius_sq) (*values)[r] *= std::sqrt(d2 / radius_sq);
    }
  }
}

}  // namespace restune
