#include "linalg/blas.hpp"

namespace gpumip::linalg {

// The row update below is the inner loop of every simplex refactorization
// (DenseLU::inverse), the largest share of a branch-and-bound run's host
// time. Two lanes per step let GCC's -O2 pack the body into one mulpd and
// one subpd. Its entry is pinned to a 64-byte boundary so the placement of
// its loop does not depend on the size of unrelated code linked before it:
// unpinned, deleting unrelated code elsewhere moved the branch-and-bound
// benchmark by about 20% on a 4-core Xeon.
[[gnu::aligned(64)]] void sub_scaled(double alpha, const double* __restrict x,
                                     double* __restrict y, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 2) {
    y[i] -= alpha * x[i];
    y[i + 1] -= alpha * x[i + 1];
  }
}

void gemv(double alpha, const Matrix& a, std::span<const double> x, double beta,
          std::span<double> y) {
  check_arg(static_cast<int>(x.size()) == a.cols(), "gemv: x size mismatch");
  check_arg(static_cast<int>(y.size()) == a.rows(), "gemv: y size mismatch");
  for (double& v : y) v *= beta;
  for (int c = 0; c < a.cols(); ++c) {
    const double xc = alpha * x[c];
    if (xc == 0.0) continue;
    auto column = a.col(c);
    for (int r = 0; r < a.rows(); ++r) y[r] += xc * column[r];
  }
}

void gemv_t(double alpha, const Matrix& a, std::span<const double> x, double beta,
            std::span<double> y) {
  check_arg(static_cast<int>(x.size()) == a.rows(), "gemv_t: x size mismatch");
  check_arg(static_cast<int>(y.size()) == a.cols(), "gemv_t: y size mismatch");
  for (int c = 0; c < a.cols(); ++c) {
    auto column = a.col(c);
    double sum = 0.0;
    for (int r = 0; r < a.rows(); ++r) sum += column[r] * x[r];
    y[c] = alpha * sum + beta * y[c];
  }
}

void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c) {
  check_arg(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  check_arg(c.rows() == a.rows() && c.cols() == b.cols(), "gemm: output shape mismatch");
  for (int j = 0; j < c.cols(); ++j) {
    auto cj = c.col(j);
    for (double& v : cj) v *= beta;
    auto bj = b.col(j);
    for (int k = 0; k < a.cols(); ++k) {
      const double bkj = alpha * bj[k];
      if (bkj == 0.0) continue;
      auto ak = a.col(k);
      for (int i = 0; i < a.rows(); ++i) cj[i] += ak[i] * bkj;
    }
  }
}

void trsv_lower(const Matrix& l, std::span<double> b, bool unit_diagonal) {
  const int n = l.rows();
  check_arg(l.cols() == n && static_cast<int>(b.size()) == n, "trsv_lower: shape mismatch");
  for (int i = 0; i < n; ++i) {
    double sum = b[i];
    for (int j = 0; j < i; ++j) sum -= l(i, j) * b[j];
    if (unit_diagonal) {
      b[i] = sum;
    } else {
      const double d = l(i, i);
      if (d == 0.0) throw NumericalError("trsv_lower: zero diagonal");
      b[i] = sum / d;
    }
  }
}

void trsv_upper(const Matrix& u, std::span<double> b) {
  const int n = u.rows();
  check_arg(u.cols() == n && static_cast<int>(b.size()) == n, "trsv_upper: shape mismatch");
  for (int i = n - 1; i >= 0; --i) {
    double sum = b[i];
    for (int j = i + 1; j < n; ++j) sum -= u(i, j) * b[j];
    const double d = u(i, i);
    if (d == 0.0) throw NumericalError("trsv_upper: zero diagonal");
    b[i] = sum / d;
  }
}

void trsv_lower_t(const Matrix& l, std::span<double> b, bool unit_diagonal) {
  const int n = l.rows();
  check_arg(l.cols() == n && static_cast<int>(b.size()) == n, "trsv_lower_t: shape mismatch");
  for (int i = n - 1; i >= 0; --i) {
    double sum = b[i];
    for (int j = i + 1; j < n; ++j) sum -= l(j, i) * b[j];
    if (unit_diagonal) {
      b[i] = sum;
    } else {
      const double d = l(i, i);
      if (d == 0.0) throw NumericalError("trsv_lower_t: zero diagonal");
      b[i] = sum / d;
    }
  }
}

void trsv_upper_t(const Matrix& u, std::span<double> b) {
  const int n = u.rows();
  check_arg(u.cols() == n && static_cast<int>(b.size()) == n, "trsv_upper_t: shape mismatch");
  for (int i = 0; i < n; ++i) {
    double sum = b[i];
    for (int j = 0; j < i; ++j) sum -= u(j, i) * b[j];
    const double d = u(i, i);
    if (d == 0.0) throw NumericalError("trsv_upper_t: zero diagonal");
    b[i] = sum / d;
  }
}

}  // namespace gpumip::linalg
