#include "sparse/ops.hpp"

#include <algorithm>
#include <cmath>

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

void spmm(const Csr& a, const linalg::Matrix& b, linalg::Matrix& c) {
  check_arg(a.cols == b.rows(), "spmm: inner dimension mismatch");
  check_arg(c.rows() == a.rows && c.cols() == b.cols(), "spmm: output shape mismatch");
  for (int j = 0; j < b.cols(); ++j) {
    auto bj = b.col(j);
    auto cj = c.col(j);
    spmv(1.0, a, bj, 0.0, cj);
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

RowStats row_stats(const Csr& a) {
  RowStats stats;
  if (a.rows == 0) return stats;
  double sum = 0.0, sum_sq = 0.0;
  for (int r = 0; r < a.rows; ++r) {
    const double len = a.row_start[static_cast<std::size_t>(r) + 1] -
                       a.row_start[static_cast<std::size_t>(r)];
    sum += len;
    sum_sq += len * len;
    stats.max = std::max(stats.max, len);
  }
  stats.mean = sum / a.rows;
  const double var = std::max(0.0, sum_sq / a.rows - stats.mean * stats.mean);
  stats.cv = stats.mean > 0 ? std::sqrt(var) / stats.mean : 0.0;
  return stats;
}

}  // namespace gpumip::sparse
