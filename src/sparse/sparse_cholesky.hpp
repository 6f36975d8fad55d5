// Simplicial sparse Cholesky (up-looking, dense work vector) for symmetric
// positive definite systems — the sparse normal-equations path of the
// interior-point solver (paper sections 2.3, 4.2).
//
// No pivoting (SPD).
#pragma once

#include <vector>

#include "sparse/formats.hpp"

namespace gpumip::sparse {

class SparseCholesky {
 public:
  SparseCholesky() = default;

  /// Factors A = L Lᵀ for SPD A (CSC, full matrix given; only the lower
  /// triangle is read). `ridge` is added to the diagonal. Throws
  /// NumericalError if not positive definite.
  explicit SparseCholesky(const Csc& a, double ridge = 0.0);

  int order() const noexcept { return n_; }
  bool valid() const noexcept { return n_ > 0; }

  linalg::Vector solve(std::span<const double> b) const;

 private:
  struct Entry {
    int row;
    double value;
  };
  int n_ = 0;
  std::vector<std::vector<Entry>> l_cols_;  // strictly-lower entries
  std::vector<double> diag_;
};

}  // namespace gpumip::sparse
