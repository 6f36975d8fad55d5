// Dense LU factorization with partial pivoting (getrf/getrs-style).
//
// Used for basis refactorization in the revised simplex (paper sections
// 4.3, 5.1) and as the dense direct solver behind the interior-point
// normal equations when the problem is dense.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace gpumip::linalg {

class DenseLU {
 public:
  DenseLU() = default;

  /// Factors PA = LU in place; throws NumericalError if singular to
  /// working precision (a pivot below 1e-12 in magnitude).
  explicit DenseLU(const Matrix& a);

  int order() const noexcept { return lu_.rows(); }
  bool valid() const noexcept { return !lu_.empty(); }

  /// Solves A x = b; returns x.
  Vector solve(std::span<const double> b) const;
  /// Solves Aᵀ x = b; returns x.
  Vector solve_transpose(std::span<const double> b) const;

  /// Explicit inverse (used by the explicit-B⁻¹ simplex backend; the
  /// paper's GPU narrative keeps B⁻¹ as a dense device-resident matrix).
  Matrix inverse() const;

  /// Packed LU factors (L unit-lower in strict lower triangle, U upper).
  const Matrix& packed() const noexcept { return lu_; }
  const std::vector<int>& pivots() const noexcept { return pivots_; }

 private:
  Matrix lu_;
  std::vector<int> pivots_;  // pivots_[k] = row swapped with k at step k
};

}  // namespace gpumip::linalg
