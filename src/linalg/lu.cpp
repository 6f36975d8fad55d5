#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "linalg/blas.hpp"

namespace gpumip::linalg {

namespace {

/// A pivot smaller than this in magnitude makes the matrix singular.
constexpr double kSingularPivot = 1e-12;

void transpose_in_place(Matrix& a) {
  for (int c = 1; c < a.cols(); ++c) {
    for (int r = 0; r < c; ++r) std::swap(a(r, c), a(c, r));
  }
}

}  // namespace

DenseLU::DenseLU(const Matrix& a) : lu_(a) {
  check_arg(a.rows() == a.cols(), "DenseLU requires a square matrix");
  const int n = a.rows();
  pivots_.resize(static_cast<std::size_t>(n));
  transpose_in_place(lu_);
  // The elimination runs on Aᵀ, so row i of the working matrix is the
  // contiguous column i of lu_'s storage: w(i, c) = lu_(c, i). A row swap
  // and a row update (w(i, c) -= mult·w(k, c) for c > k) are then runs of
  // adjacent doubles. Each element gets the same operations in the same
  // order as a row-by-row elimination in place, so every bit matches one.
  auto w = [&](int i, int c) -> double& { return lu_(c, i); };
  for (int k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at or below the diagonal.
    int pivot_row = k;
    double pivot_abs = std::fabs(w(k, k));
    for (int i = k + 1; i < n; ++i) {
      const double v = std::fabs(w(i, k));
      if (v > pivot_abs) {
        pivot_abs = v;
        pivot_row = i;
      }
    }
    if (pivot_abs < kSingularPivot) {
      lu_ = Matrix();
      throw NumericalError("LU factorization: matrix is numerically singular at column " +
                           std::to_string(k));
    }
    pivots_[static_cast<std::size_t>(k)] = pivot_row;
    if (pivot_row != k) {
      std::swap_ranges(lu_.col(k).begin(), lu_.col(k).end(), lu_.col(pivot_row).begin());
    }
    const double inv_pivot = 1.0 / w(k, k);
    const double* pivot = lu_.col(k).data() + k + 1;  // w(k, k+1 ..)
    const std::size_t tail = static_cast<std::size_t>(n - k - 1);
    const std::size_t even = tail & ~std::size_t{1};
    for (int i = k + 1; i < n; ++i) {
      const double mult = w(i, k) * inv_pivot;
      w(i, k) = mult;
      // A zero multiplier skips its row: subtracting a ±0 product is not
      // exact on a -0 entry.
      if (mult == 0.0) continue;
      double* row = lu_.col(i).data() + k + 1;
      sub_scaled(mult, pivot, row, even);
      if (even < tail) row[even] -= mult * pivot[even];
    }
  }
  transpose_in_place(lu_);  // back to the column-major packed factors
}

Vector DenseLU::solve(std::span<const double> b) const {
  check_arg(valid(), "DenseLU::solve on empty factorization");
  const int n = order();
  check_arg(static_cast<int>(b.size()) == n, "DenseLU::solve: size mismatch");
  Vector x(b.begin(), b.end());
  for (int k = 0; k < n; ++k) {
    const int p = pivots_[static_cast<std::size_t>(k)];
    if (p != k) std::swap(x[static_cast<std::size_t>(k)], x[static_cast<std::size_t>(p)]);
  }
  trsv_lower(lu_, x, /*unit_diagonal=*/true);
  trsv_upper(lu_, x);
  return x;
}

Vector DenseLU::solve_transpose(std::span<const double> b) const {
  check_arg(valid(), "DenseLU::solve_transpose on empty factorization");
  const int n = order();
  check_arg(static_cast<int>(b.size()) == n, "DenseLU::solve_transpose: size mismatch");
  // Aᵀ x = b  with PA = LU  =>  Aᵀ = Uᵀ Lᵀ P, so solve Uᵀ y = b, Lᵀ z = y,
  // then x = Pᵀ z (undo the row swaps in reverse).
  Vector x(b.begin(), b.end());
  trsv_upper_t(lu_, x);
  trsv_lower_t(lu_, x, /*unit_diagonal=*/true);
  for (int k = n - 1; k >= 0; --k) {
    const int p = pivots_[static_cast<std::size_t>(k)];
    if (p != k) std::swap(x[static_cast<std::size_t>(k)], x[static_cast<std::size_t>(p)]);
  }
  return x;
}

Matrix DenseLU::inverse() const {
  check_arg(valid(), "DenseLU::inverse on empty factorization");
  const int n = order();
  // Solves A X = I for all n columns at once: X = P·I, then the forward
  // and backward substitutions of solve() run row by row over X, stored
  // row-major so each step is one contiguous row update. The row stride is
  // padded to an even count for sub_scaled's two lanes.
  //
  // Every element sees the operations solve(e_c) applies to it, in the
  // same order (ascending j in both sweeps, then the division), so the
  // result is bit-identical to n column solves. Skipping an exact-zero L or
  // U entry drops a `- 0·x` step, and that is exact while x is finite: the
  // running difference it would act on is never -0 (it starts at +0, 1 or a
  // forward result, and x - x rounds to +0).
  const std::size_t stride = static_cast<std::size_t>(n + (n & 1));
  std::vector<double> x(stride * static_cast<std::size_t>(n), 0.0);
  auto row = [&](int i) { return x.data() + static_cast<std::size_t>(i) * stride; };
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int k = 0; k < n; ++k) {
    std::swap(perm[static_cast<std::size_t>(k)],
              perm[static_cast<std::size_t>(pivots_[static_cast<std::size_t>(k)])]);
  }
  for (int i = 0; i < n; ++i) row(i)[perm[static_cast<std::size_t>(i)]] = 1.0;
  for (int i = 1; i < n; ++i) {
    for (int j = 0; j < i; ++j) {
      const double l = lu_(i, j);
      if (l != 0.0) sub_scaled(l, row(j), row(i), stride);
    }
  }
  for (int i = n - 1; i >= 0; --i) {
    for (int j = i + 1; j < n; ++j) {
      const double u = lu_(i, j);
      if (u != 0.0) sub_scaled(u, row(j), row(i), stride);
    }
    const double d = lu_(i, i);
    if (d == 0.0) throw NumericalError("DenseLU::inverse: zero diagonal");
    double* xi = row(i);
    for (std::size_t c = 0; c < stride; ++c) xi[c] /= d;
  }
  Matrix inv(n, n);
  for (int c = 0; c < n; ++c) {
    for (int i = 0; i < n; ++i) inv(i, c) = row(i)[c];
  }
  return inv;
}

}  // namespace gpumip::linalg
