#include "sparse/sparse_cholesky.hpp"

#include <cmath>

namespace gpumip::sparse {

SparseCholesky::SparseCholesky(const Csc& a, double ridge) {
  check_arg(a.rows == a.cols, "SparseCholesky: square matrix required");
  n_ = a.rows;
  l_cols_.resize(static_cast<std::size_t>(n_));
  diag_.assign(static_cast<std::size_t>(n_), 0.0);

  std::vector<double> x(static_cast<std::size_t>(n_), 0.0);
  std::vector<bool> mark(static_cast<std::size_t>(n_), false);
  std::vector<int> touched;

  // Column-by-column left-looking: for column j, compute
  //   L(j:n, j) = (A(j:n, j) - Σ_{k<j, L(j,k)!=0} L(j,k) · L(j:n, k)) / L(j,j).
  // L(j, k) values are found incrementally: entry (j) appended to column k
  // when column j of L is finalized, so columns < j are complete here.
  std::vector<std::vector<Entry>> l_rows(static_cast<std::size_t>(n_));  // L by rows, k<j part
  for (int j = 0; j < n_; ++j) {
    touched.clear();
    double ajj = ridge;
    for (int k = a.col_start[static_cast<std::size_t>(j)];
         k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      const int r = a.row_index[static_cast<std::size_t>(k)];
      if (r == j) {
        ajj += a.values[static_cast<std::size_t>(k)];
      } else if (r > j) {
        x[static_cast<std::size_t>(r)] = a.values[static_cast<std::size_t>(k)];
        if (!mark[static_cast<std::size_t>(r)]) {
          mark[static_cast<std::size_t>(r)] = true;
          touched.push_back(r);
        }
      }
    }
    // Subtract contributions of earlier columns k with L(j,k) != 0.
    double sum_sq = 0.0;
    for (const Entry& ljk : l_rows[static_cast<std::size_t>(j)]) {
      const int k = ljk.row;  // column index k < j
      const double v = ljk.value;
      sum_sq += v * v;
      for (const Entry& e : l_cols_[static_cast<std::size_t>(k)]) {
        if (e.row <= j) continue;
        if (!mark[static_cast<std::size_t>(e.row)]) {
          mark[static_cast<std::size_t>(e.row)] = true;
          touched.push_back(e.row);
          x[static_cast<std::size_t>(e.row)] = 0.0;
        }
        x[static_cast<std::size_t>(e.row)] -= v * e.value;
      }
    }
    const double d2 = ajj - sum_sq;
    if (d2 <= 0.0 || !std::isfinite(d2)) {
      n_ = 0;
      throw NumericalError("SparseCholesky: not positive definite at column " +
                           std::to_string(j));
    }
    const double djj = std::sqrt(d2);
    diag_[static_cast<std::size_t>(j)] = djj;
    for (int r : touched) {
      mark[static_cast<std::size_t>(r)] = false;
      const double v = x[static_cast<std::size_t>(r)];
      x[static_cast<std::size_t>(r)] = 0.0;
      if (v == 0.0) continue;
      const double lrj = v / djj;
      l_cols_[static_cast<std::size_t>(j)].push_back({r, lrj});
      l_rows[static_cast<std::size_t>(r)].push_back({j, lrj});
    }
  }
}

linalg::Vector SparseCholesky::solve(std::span<const double> b) const {
  check_arg(valid(), "SparseCholesky::solve on empty factorization");
  check_arg(static_cast<int>(b.size()) == n_, "SparseCholesky::solve: size mismatch");
  linalg::Vector y(b.begin(), b.end());
  // Forward: L y = b.
  for (int j = 0; j < n_; ++j) {
    const double yj = y[static_cast<std::size_t>(j)] / diag_[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(j)] = yj;
    if (yj == 0.0) continue;
    for (const Entry& e : l_cols_[static_cast<std::size_t>(j)]) {
      y[static_cast<std::size_t>(e.row)] -= e.value * yj;
    }
  }
  // Backward: Lᵀ x = y.
  for (int j = n_ - 1; j >= 0; --j) {
    double sum = y[static_cast<std::size_t>(j)];
    for (const Entry& e : l_cols_[static_cast<std::size_t>(j)]) {
      sum -= e.value * y[static_cast<std::size_t>(e.row)];
    }
    y[static_cast<std::size_t>(j)] = sum / diag_[static_cast<std::size_t>(j)];
  }
  return y;
}

}  // namespace gpumip::sparse
