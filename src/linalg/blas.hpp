// Host dense kernels: the row update of the LU inverse, GEMV, GEMM and the
// triangular solves, used wherever the computation is attributed to the
// CPU.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace gpumip::linalg {

// ----- vector update -----
/// y[i] -= alpha * x[i] for i < n; n even, x and y do not overlap. The row
/// update of DenseLU's elimination and of DenseLU::inverse's
/// multi-right-hand-side substitution.
void sub_scaled(double alpha, const double* __restrict x, double* __restrict y, std::size_t n);

// ----- BLAS-2 -----
/// y = alpha * A x + beta * y
void gemv(double alpha, const Matrix& a, std::span<const double> x, double beta,
          std::span<double> y);

// ----- BLAS-3 -----
/// C = alpha * A B + beta * C
void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c);

// ----- triangular solves -----
/// Solve L x = b (unit or non-unit lower triangular), in place on b.
void trsv_lower(const Matrix& l, std::span<double> b, bool unit_diagonal);
/// Solve U x = b (upper triangular), in place on b.
void trsv_upper(const Matrix& u, std::span<double> b);
/// Solve Lᵀ x = b, in place.
void trsv_lower_t(const Matrix& l, std::span<double> b, bool unit_diagonal);
/// Solve Uᵀ x = b, in place.
void trsv_upper_t(const Matrix& u, std::span<double> b);

}  // namespace gpumip::linalg
