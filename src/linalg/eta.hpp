// Product-form-of-inverse (PFI) eta updates.
//
// When the simplex basis exchanges column r for entering column a_q, the
// new basis inverse satisfies B_new⁻¹ = E · B_old⁻¹ where E is an "eta
// matrix": the identity with column r replaced by
//     η_r = 1 / y_r,     η_i = -y_i / y_r   (i ≠ r),     y = B_old⁻¹ a_q.
// Applying E to an explicit dense B⁻¹ in place (apply_to_matrix) avoids
// refactorizing the basis each iteration — the rank-1 update/reuse pattern
// the paper's sections 4.3 and 5.1 identify as the key GPU linear-algebra
// requirement, and a uniform m x m SIMD kernel on a device.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace gpumip::linalg {

/// One basis-change eta matrix.
struct Eta {
  int pivot_row = -1;
  Vector column;  // full η column of length m

  /// Builds an eta from the FTRAN result y = B⁻¹ a_q and pivot row r.
  /// Throws NumericalError if |y_r| < tol (unstable pivot).
  static Eta from_ftran(std::span<const double> y, int r, double tol = 1e-11);

  /// from_ftran into this eta's own storage: `column` must already have
  /// y.size() entries, so a simplex pivot rebuilds its eta without
  /// allocating. Throws like from_ftran.
  void assign_from_ftran(std::span<const double> y, int r, double tol = 1e-11);

  /// M := E M, column by column (dense rank-1-style kernel; the form a GPU
  /// would run to keep an explicit device-resident B⁻¹ current).
  void apply_to_matrix(Matrix& m) const;
};

}  // namespace gpumip::linalg
