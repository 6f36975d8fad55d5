#include "linalg/eta.hpp"

#include <cmath>

namespace gpumip::linalg {

Eta Eta::from_ftran(std::span<const double> y, int r, double tol) {
  Eta eta;
  eta.column.resize(y.size());
  eta.assign_from_ftran(y, r, tol);
  return eta;
}

void Eta::assign_from_ftran(std::span<const double> y, int r, double tol) {
  check_arg(r >= 0 && r < static_cast<int>(y.size()), "Eta::from_ftran: bad pivot row");
  check_arg(column.size() == y.size(), "Eta::assign_from_ftran: column size mismatch");
  const double yr = y[static_cast<std::size_t>(r)];
  if (std::fabs(yr) < tol) {
    throw NumericalError("eta update: pivot element " + std::to_string(yr) + " too small");
  }
  pivot_row = r;
  const double inv = 1.0 / yr;
  for (std::size_t i = 0; i < y.size(); ++i) column[i] = -y[i] * inv;
  column[static_cast<std::size_t>(r)] = inv;
}

// The per-pivot B⁻¹ update of the simplex. Its entry is pinned to a 64-byte
// boundary so that the placement of its loop does not depend on the size of
// unrelated code linked before it (see linalg::sub_scaled).
[[gnu::aligned(64)]] void Eta::apply_to_matrix(Matrix& m) const {
  check_arg(m.rows() == static_cast<int>(column.size()), "Eta::apply_to_matrix: shape mismatch");
  for (int c = 0; c < m.cols(); ++c) {
    auto col = m.col(c);
    const double xr = col[static_cast<std::size_t>(pivot_row)];
    if (xr == 0.0) continue;
    for (std::size_t i = 0; i < col.size(); ++i) col[i] += column[i] * xr;
    col[static_cast<std::size_t>(pivot_row)] = column[static_cast<std::size_t>(pivot_row)] * xr;
  }
}

}  // namespace gpumip::linalg
