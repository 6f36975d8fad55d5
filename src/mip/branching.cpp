#include "mip/branching.hpp"

#include <algorithm>
#include <cmath>

namespace gpumip::mip {

int select_branch_var(std::span<const double> x, const std::vector<bool>& integer_cols,
                      double int_tol) {
  int best = -1;
  double best_dist = int_tol;
  for (std::size_t j = 0; j < integer_cols.size() && j < x.size(); ++j) {
    if (!integer_cols[j]) continue;
    const double frac = x[j] - std::floor(x[j]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      best = static_cast<int>(j);
    }
  }
  return best;
}

}  // namespace gpumip::mip
