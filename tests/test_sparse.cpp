#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "sparse/formats.hpp"
#include "sparse/ops.hpp"
#include "sparse/sparse_cholesky.hpp"

namespace gpumip::sparse {
namespace {

using linalg::Matrix;
using linalg::Vector;
using linalg::max_abs_diff;

/// Random sparse matrix with guaranteed nonzero diagonal.
Csr random_sparse(int n, double density, Rng& rng) {
  std::vector<Triplet> triplets;
  for (int i = 0; i < n; ++i) triplets.push_back({i, i, rng.uniform(2.0, 4.0)});
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (r != c && rng.flip(density)) triplets.push_back({r, c, rng.uniform(-1.0, 1.0)});
    }
  }
  return csr_from_triplets(n, n, triplets);
}

Csr random_spd_sparse(int n, double density, Rng& rng) {
  // A = B + Bᵀ + (row-sum dominance) I, guaranteed SPD by diagonal dominance.
  Matrix dense(n, n, 0.0);
  for (int r = 0; r < n; ++r) {
    for (int c = r + 1; c < n; ++c) {
      if (rng.flip(density)) {
        const double v = rng.uniform(-1.0, 1.0);
        dense(r, c) = v;
        dense(c, r) = v;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (int j = 0; j < n; ++j) row_sum += std::fabs(dense(i, j));
    dense(i, i) = row_sum + 1.0;
  }
  return csr_from_dense(dense);
}

TEST(Formats, TripletsRoundTrip) {
  std::vector<Triplet> t = {{0, 1, 2.0}, {2, 0, -1.0}, {1, 1, 3.0}, {0, 1, 0.5}};
  Csr a = csr_from_triplets(3, 3, t);
  EXPECT_EQ(a.nnz(), 3);  // duplicates summed
  Matrix d = to_dense(a);
  EXPECT_DOUBLE_EQ(d(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(d(2, 0), -1.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
}

TEST(Formats, DuplicateCancellationDropsEntry) {
  std::vector<Triplet> t = {{0, 0, 1.0}, {0, 0, -1.0}, {1, 1, 2.0}};
  Csr a = csr_from_triplets(2, 2, t);
  EXPECT_EQ(a.nnz(), 1);
}

TEST(Formats, OutOfRangeTripletThrows) {
  EXPECT_THROW(csr_from_triplets(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(csr_from_triplets(2, 2, {{0, -1, 1.0}}), Error);
}

TEST(Formats, CsrCscRoundTrip) {
  Rng rng(5);
  Csr a = random_sparse(20, 0.2, rng);
  EXPECT_EQ(max_abs_diff(to_dense(csr_to_csc(a)), to_dense(a)), 0.0);
}

TEST(Formats, TransposeMatchesDense) {
  Rng rng(7);
  Csr a = random_sparse(15, 0.3, rng);
  EXPECT_LT(max_abs_diff(to_dense(transpose(a)), to_dense(a).transposed()), 1e-15);
}

TEST(Formats, DenseRoundTrip) {
  Rng rng(9);
  Csr a = random_sparse(12, 0.25, rng);
  EXPECT_TRUE(approx_equal(a, csr_from_dense(to_dense(a)), 0.0));
}

TEST(Formats, DensityComputation) {
  Csr a = csr_from_triplets(4, 5, {{0, 0, 1}, {1, 2, 1}, {3, 4, 1}});
  EXPECT_DOUBLE_EQ(a.density(), 3.0 / 20.0);
}

TEST(Formats, DenseColumnExtraction) {
  Rng rng(11);
  Csr a = random_sparse(10, 0.3, rng);
  Csc csc = csr_to_csc(a);
  Matrix d = to_dense(a);
  for (int j = 0; j < 10; ++j) {
    Vector col = dense_column(csc, j);
    for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(col[static_cast<std::size_t>(i)], d(i, j));
  }
}

TEST(Ops, SpmvMatchesDenseGemv) {
  Rng rng(13);
  Csr a = random_sparse(25, 0.15, rng);
  Vector x(25), y1(25, 1.0), y2(25, 1.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  spmv(2.0, a, x, 0.5, y1);
  linalg::gemv(2.0, to_dense(a), x, 0.5, y2);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-12);
}

/// Reference Aᵀx by CSR row scatter: y = βy first, then each row's
/// (αx_i)·a_ij added in ascending row order, rows with αx_i == 0 skipped.
/// spmv_t's column gather must match it bit for bit.
void scatter_spmv_t(double alpha, const Csr& a, std::span<const double> x, double beta,
                    std::span<double> y) {
  for (double& v : y) v *= beta;
  for (int r = 0; r < a.rows; ++r) {
    const double xr = alpha * x[static_cast<std::size_t>(r)];
    if (xr == 0.0) continue;
    for (int k = a.row_start[static_cast<std::size_t>(r)];
         k < a.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      y[static_cast<std::size_t>(a.col_index[static_cast<std::size_t>(k)])] +=
          xr * a.values[static_cast<std::size_t>(k)];
    }
  }
}

TEST(Ops, SpmvTransposeIsBitIdenticalToRowScatter) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int rows = 1 + static_cast<int>(rng.index(40));
    const int cols = 1 + static_cast<int>(rng.index(40));
    std::vector<Triplet> triplets;
    for (int r = 0; r < rows; ++r) {
      // Column 0 stays empty, so its entry is β·y_0 alone.
      for (int c = 1; c < cols; ++c) {
        if (rng.flip(0.3)) triplets.push_back({r, c, rng.uniform(-2.0, 2.0)});
      }
    }
    const Csr a = csr_from_triplets(rows, cols, triplets);
    const Csc a_cols = csr_to_csc(a);
    Vector x(static_cast<std::size_t>(rows));
    for (double& v : x) v = rng.flip(0.3) ? 0.0 : rng.uniform(-1.0, 1.0);
    Vector y0(static_cast<std::size_t>(cols));
    for (double& v : y0) v = rng.flip(0.2) ? -0.0 : rng.uniform(-1.0, 1.0);
    // β = 0 turns negative y entries into −0.0, which survives only where
    // every αx_i of the column is skipped.
    const double alpha = trial % 5 == 0 ? 1.0 : rng.uniform(-3.0, 3.0);
    const double beta = trial % 3 == 0 ? 0.0 : rng.uniform(-2.0, 2.0);
    Vector gathered = y0, scattered = y0;
    spmv_t(alpha, a_cols, x, beta, gathered);
    scatter_spmv_t(alpha, a, x, beta, scattered);
    EXPECT_EQ(std::memcmp(gathered.data(), scattered.data(), gathered.size() * sizeof(double)), 0)
        << "trial " << trial << " (" << rows << "x" << cols << ", alpha " << alpha << ", beta "
        << beta << ")";
  }
}

TEST(Ops, ColumnDot) {
  Rng rng(23);
  Csr a = random_sparse(8, 0.4, rng);
  Csc csc = csr_to_csc(a);
  Vector x(8);
  for (auto& v : x) v = rng.uniform(-1, 1);
  Matrix d = to_dense(a);
  for (int j = 0; j < 8; ++j) {
    double expected = 0.0;
    for (int i = 0; i < 8; ++i) expected += d(i, j) * x[static_cast<std::size_t>(i)];
    EXPECT_NEAR(column_dot(csc, j, x), expected, 1e-12);
  }
}

TEST(SparseCholesky, SolvesSpdSystems) {
  Rng rng(43);
  for (int n : {1, 6, 25, 60}) {
    Csr a = random_spd_sparse(n, 0.1, rng);
    SparseCholesky chol(csr_to_csc(a));
    Vector xtrue(static_cast<std::size_t>(n));
    for (auto& v : xtrue) v = rng.uniform(-1, 1);
    Vector b(static_cast<std::size_t>(n), 0.0);
    spmv(1.0, a, xtrue, 0.0, b);
    EXPECT_LT(max_abs_diff(chol.solve(b), xtrue), 1e-8) << "n=" << n;
  }
}

TEST(SparseCholesky, MatchesDenseCholesky) {
  Rng rng(47);
  Csr a = random_spd_sparse(15, 0.3, rng);
  SparseCholesky schol(csr_to_csc(a));
  linalg::DenseCholesky dchol(to_dense(a));
  Vector b(15);
  for (auto& v : b) v = rng.uniform(-1, 1);
  EXPECT_LT(max_abs_diff(schol.solve(b), dchol.solve(b)), 1e-9);
}

TEST(SparseCholesky, IndefiniteThrows) {
  Csr a = csr_from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 1.0}});
  EXPECT_THROW(SparseCholesky{csr_to_csc(a)}, NumericalError);
}

}  // namespace
}  // namespace gpumip::sparse
