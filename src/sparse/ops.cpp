#include "sparse/ops.hpp"

namespace gpumip::sparse {

void spmv(double alpha, const Csr& a, std::span<const double> x, double beta,
          std::span<double> y) {
  check_arg(static_cast<int>(x.size()) == a.cols, "spmv: x size mismatch");
  check_arg(static_cast<int>(y.size()) == a.rows, "spmv: y size mismatch");
  for (int r = 0; r < a.rows; ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    y[i] = alpha * row_dot(a, r, x) + beta * y[i];
  }
}

void spmv_t(double alpha, const Csc& a, std::span<const double> x, double beta,
            std::span<double> y) {
  check_arg(static_cast<int>(x.size()) == a.rows, "spmv_t: x size mismatch");
  check_arg(static_cast<int>(y.size()) == a.cols, "spmv_t: y size mismatch");
  for (int j = 0; j < a.cols; ++j) {
    const std::size_t k = static_cast<std::size_t>(j);
    y[k] = gather_column(alpha, a, j, x, beta * y[k]);
  }
}

// The pricing dot of every simplex reduced cost. Its entry is pinned to a
// 64-byte boundary so that the placement of its loop does not depend on the
// size of unrelated code linked before it (see linalg::sub_scaled).
[[gnu::aligned(64)]] double column_dot(const Csc& a, int j, std::span<const double> x) {
  check_arg(j >= 0 && j < a.cols, "column_dot: bad column");
  check_arg(static_cast<int>(x.size()) == a.rows, "column_dot: size mismatch");
  double sum = 0.0;
  for (int k = a.col_start[static_cast<std::size_t>(j)];
       k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
    sum += a.values[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(k)])];
  }
  return sum;
}

}  // namespace gpumip::sparse
