// Sparse BLAS kernels (host reference implementations).
#pragma once

#include <span>

#include "sparse/formats.hpp"

namespace gpumip::sparse {

/// Dot of sparse row r of A (CSR) with a dense vector, in ascending column
/// order from +0.0: the per-row body of spmv.
inline double row_dot(const Csr& a, int r, std::span<const double> x) noexcept {
  double sum = 0.0;
  for (int k = a.row_start[static_cast<std::size_t>(r)];
       k < a.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
    sum += a.values[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(a.col_index[static_cast<std::size_t>(k)])];
  }
  return sum;
}

/// y = alpha A x + beta y (CSR).
void spmv(double alpha, const Csr& a, std::span<const double> x, double beta,
          std::span<double> y);

/// Entry j of alpha Aᵀ x + beta y: `acc` (the caller's beta·y_j) plus the
/// terms (alpha·x_i)·a_ij of column j in ascending row order, skipping rows
/// where alpha·x_i is zero. Fused loops call it per column so their
/// arithmetic is spmv_t's bit for bit.
inline double gather_column(double alpha, const Csc& a, int j, std::span<const double> x,
                            double acc) noexcept {
  for (int k = a.col_start[static_cast<std::size_t>(j)];
       k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
    const double xi = alpha * x[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(k)])];
    if (xi != 0.0) acc += xi * a.values[static_cast<std::size_t>(k)];
  }
  return acc;
}

/// y = alpha Aᵀ x + beta y, gathered column by column over the CSC view.
void spmv_t(double alpha, const Csc& a, std::span<const double> x, double beta,
            std::span<double> y);

/// Dot of sparse column j of A (CSC) with a dense vector.
double column_dot(const Csc& a, int j, std::span<const double> x);

}  // namespace gpumip::sparse
