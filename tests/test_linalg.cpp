#include <gtest/gtest.h>

#include <cmath>

#include "linalg/batched.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/device_blas.hpp"
#include "linalg/eta.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace gpumip::linalg {
namespace {

Matrix mat3() {
  Matrix a(3, 3);
  a(0, 0) = 4;  a(0, 1) = -2; a(0, 2) = 1;
  a(1, 0) = -2; a(1, 1) = 5;  a(1, 2) = -1;
  a(2, 0) = 1;  a(2, 1) = -1; a(2, 2) = 3;
  return a;
}

TEST(Matrix, IdentityAndIndexing) {
  Matrix id = Matrix::identity(4);
  EXPECT_EQ(id(2, 2), 1.0);
  EXPECT_EQ(id(2, 1), 0.0);
  id(1, 3) = 7.5;
  EXPECT_EQ(id.col(3)[1], 7.5);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(3);
  Matrix a = Matrix::random(5, 3, rng);
  EXPECT_EQ(max_abs_diff(a.transposed().transposed(), a), 0.0);
}

TEST(Blas1, DotNormAxpy) {
  Vector x = {1, 2, 3};
  Vector y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(nrm2(x), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(asum(y), 15.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_EQ(iamax(y), 2);
  scal(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(Blas2, GemvMatchesManual) {
  Matrix a = mat3();
  Vector x = {1, 2, 3};
  Vector y = {1, 1, 1};
  gemv(1.0, a, x, 1.0, y);  // y = A x + y
  EXPECT_DOUBLE_EQ(y[0], 4 - 4 + 3 + 1);
  EXPECT_DOUBLE_EQ(y[1], -2 + 10 - 3 + 1);
  EXPECT_DOUBLE_EQ(y[2], 1 - 2 + 9 + 1);
}

TEST(Blas2, GemvTransposeConsistent) {
  Rng rng(5);
  Matrix a = Matrix::random(4, 6, rng);
  Vector x(4, 0.0), y(6, 0.0);
  for (auto& v : x) v = rng.uniform();
  gemv_t(1.0, a, x, 0.0, y);
  Vector y2(6, 0.0);
  gemv(1.0, a.transposed(), x, 0.0, y2);
  EXPECT_LT(max_abs_diff(y, y2), 1e-14);
}

TEST(Blas2, GerIsRankOneUpdate) {
  Matrix a(2, 2, 0.0);
  Vector x = {1, 2}, y = {3, 4};
  ger(1.0, x, y, a);
  EXPECT_DOUBLE_EQ(a(0, 0), 3);
  EXPECT_DOUBLE_EQ(a(1, 1), 8);
}

TEST(Blas3, GemmMatchesGemvColumns) {
  Rng rng(9);
  Matrix a = Matrix::random(4, 3, rng);
  Matrix b = Matrix::random(3, 5, rng);
  Matrix c(4, 5);
  gemm(1.0, a, b, 0.0, c);
  for (int j = 0; j < 5; ++j) {
    Vector y(4, 0.0);
    gemv(1.0, a, b.col(j), 0.0, y);
    for (int i = 0; i < 4; ++i) EXPECT_NEAR(c(i, j), y[i], 1e-13);
  }
}

TEST(LU, ReconstructsPAasLU) {
  Rng rng(17);
  for (int n : {1, 2, 5, 20, 60}) {
    Matrix a = Matrix::random(n, n, rng);
    for (int i = 0; i < n; ++i) a(i, i) += 2.0;  // keep well-conditioned
    DenseLU lu(a);
    // Rebuild PA from factors and compare.
    Matrix pa = a;
    for (int k = 0; k < n; ++k) {
      const int p = lu.pivots()[static_cast<std::size_t>(k)];
      if (p != k) {
        for (int c = 0; c < n; ++c) std::swap(pa(k, c), pa(p, c));
      }
    }
    const Matrix& f = lu.packed();
    Matrix rebuilt(n, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        double sum = 0.0;
        const int kmax = std::min(i, j);
        for (int k = 0; k <= kmax; ++k) {
          const double lik = (k == i) ? 1.0 : f(i, k);
          sum += lik * f(k, j);
        }
        rebuilt(i, j) = sum;
      }
    }
    EXPECT_LT(max_abs_diff(rebuilt, pa), 1e-10) << "n=" << n;
  }
}

TEST(LU, SolveAndTransposeSolve) {
  Rng rng(21);
  Matrix a = Matrix::random(12, 12, rng);
  for (int i = 0; i < 12; ++i) a(i, i) += 4.0;
  DenseLU lu(a);
  Vector xtrue(12);
  for (auto& v : xtrue) v = rng.uniform(-5, 5);
  Vector b(12, 0.0), bt(12, 0.0);
  gemv(1.0, a, xtrue, 0.0, b);
  gemv_t(1.0, a, xtrue, 0.0, bt);
  EXPECT_LT(max_abs_diff(lu.solve(b), xtrue), 1e-9);
  EXPECT_LT(max_abs_diff(lu.solve_transpose(bt), xtrue), 1e-9);
}

TEST(LU, SingularThrows) {
  Matrix a(3, 3, 0.0);
  a(0, 0) = 1;
  a(1, 1) = 1;  // column/row 2 all zero
  EXPECT_THROW(DenseLU{a}, NumericalError);
}

TEST(LU, InverseTimesAIsIdentity) {
  Rng rng(23);
  Matrix a = Matrix::random(8, 8, rng);
  for (int i = 0; i < 8; ++i) a(i, i) += 3.0;
  DenseLU lu(a);
  Matrix inv = lu.inverse();
  Matrix prod(8, 8);
  gemm(1.0, inv, a, 0.0, prod);
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(8)), 1e-9);
}

TEST(Cholesky, SolvesSpdSystem) {
  Rng rng(29);
  for (int n : {1, 4, 16, 40}) {
    Matrix a = Matrix::random_spd(n, rng);
    DenseCholesky chol(a);
    Vector xtrue(static_cast<std::size_t>(n));
    for (auto& v : xtrue) v = rng.uniform(-1, 1);
    Vector b(static_cast<std::size_t>(n), 0.0);
    gemv(1.0, a, xtrue, 0.0, b);
    EXPECT_LT(max_abs_diff(chol.solve(b), xtrue), 1e-8) << "n=" << n;
  }
}

TEST(Cholesky, ReconstructsLLt) {
  Rng rng(31);
  Matrix a = Matrix::random_spd(10, rng);
  DenseCholesky chol(a);
  const Matrix& l = chol.l();
  Matrix rebuilt(10, 10);
  gemm(1.0, l, l.transposed(), 0.0, rebuilt);
  EXPECT_LT(max_abs_diff(rebuilt, a), 1e-9);
}

TEST(Cholesky, IndefiniteThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_THROW(DenseCholesky{a}, NumericalError);
}

TEST(Cholesky, RidgeRescuesSemidefinite) {
  Matrix a(2, 2, 0.0);
  a(0, 0) = 1.0;  // rank 1
  EXPECT_THROW(DenseCholesky{a}, NumericalError);
  EXPECT_NO_THROW(DenseCholesky(a, 1e-6));
}

// --- Eta / PFI updates: the paper's core rank-1 reuse primitive ---

TEST(Eta, MatchesExplicitBasisInverse) {
  Rng rng(43);
  const int m = 8;
  Matrix b0 = Matrix::random(m, m, rng);
  for (int i = 0; i < m; ++i) b0(i, i) += 3.0;
  DenseLU lu0(b0);
  Matrix binv = lu0.inverse();

  // Replace column r of B with a new column a_q, via eta update.
  Vector aq(m);
  for (auto& v : aq) v = rng.uniform(-1, 1);
  aq[2] += 4.0;
  const int r = 2;
  Vector y = lu0.solve(aq);  // y = B⁻¹ a_q
  Eta eta = Eta::from_ftran(y, r);
  eta.apply_to_matrix(binv);  // binv := E binv

  Matrix bnew = b0;
  bnew.set_col(r, aq);
  DenseLU lu1(bnew);
  EXPECT_LT(max_abs_diff(binv, lu1.inverse()), 1e-9);
}

TEST(Eta, FtranBtranAgreeWithFactorization) {
  Rng rng(47);
  const int m = 6;
  Matrix b = Matrix::random(m, m, rng);
  for (int i = 0; i < m; ++i) b(i, i) += 3.0;
  DenseLU lu(b);
  EtaFile etas;
  Matrix bcur = b;
  // Three successive column replacements tracked with etas.
  for (int step = 0; step < 3; ++step) {
    Vector aq(m);
    for (auto& v : aq) v = rng.uniform(-1, 1);
    const int r = step * 2 % m;
    aq[static_cast<std::size_t>(r)] += 5.0;
    // FTRAN through current representation.
    Vector y = lu.solve(aq);
    etas.ftran(y);
    Eta eta = Eta::from_ftran(y, r);
    etas.push(eta);
    bcur.set_col(r, aq);
  }
  DenseLU lucur(bcur);
  // FTRAN: B⁻¹ v.
  Vector v(m);
  for (auto& x : v) x = rng.uniform(-1, 1);
  Vector via_eta = lu.solve(v);
  etas.ftran(via_eta);
  EXPECT_LT(max_abs_diff(via_eta, lucur.solve(v)), 1e-8);
  // BTRAN: B⁻ᵀ w.
  Vector w(m);
  for (auto& x : w) x = rng.uniform(-1, 1);
  Vector wb = w;
  etas.btran(wb);
  Vector via_eta_t = lu.solve_transpose(wb);
  EXPECT_LT(max_abs_diff(via_eta_t, lucur.solve_transpose(w)), 1e-8);
}

TEST(Eta, TinyPivotRejected) {
  Vector y = {0.5, 1e-14, 2.0};
  EXPECT_THROW(Eta::from_ftran(y, 1), NumericalError);
  EXPECT_NO_THROW(Eta::from_ftran(y, 2));
}

// --- device-resident wrappers ---

TEST(DeviceBlas, GemvMatchesHost) {
  gpu::Device dev;
  Rng rng(53);
  Matrix a = Matrix::random(20, 12, rng);
  Vector x(12), y(20, 0.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  auto da = DeviceMatrix::upload(dev, 0, a);
  auto dx = DeviceVector::upload(dev, 0, x);
  DeviceVector dy(dev, 20);
  dy.assign(0, y);
  dev_gemv(0, 1.0, da, dx, 0.0, dy);
  Vector host_y(20, 0.0);
  gemv(1.0, a, x, 0.0, host_y);
  EXPECT_LT(max_abs_diff(dy.download(0), host_y), 1e-13);
  EXPECT_GE(dev.stats().kernels, 1u);
  EXPECT_GT(dev.synchronize(), 0.0);
}

TEST(DeviceBlas, GetrfGetrsSolve) {
  gpu::Device dev;
  Rng rng(59);
  Matrix a = Matrix::random(16, 16, rng);
  for (int i = 0; i < 16; ++i) a(i, i) += 4.0;
  Vector xtrue(16);
  for (auto& v : xtrue) v = rng.uniform(-1, 1);
  Vector b(16, 0.0);
  gemv(1.0, a, xtrue, 0.0, b);
  auto da = DeviceMatrix::upload(dev, 0, a);
  auto pivots = dev_getrf(0, da);
  auto db = DeviceVector::upload(dev, 0, b);
  dev_getrs(0, da, pivots, db);
  EXPECT_LT(max_abs_diff(db.download(0), xtrue), 1e-9);
}

TEST(DeviceBlas, EtaUpdateOnDeviceMatchesHost) {
  gpu::Device dev;
  Rng rng(61);
  const int m = 10;
  Matrix binv = Matrix::random(m, m, rng);
  Vector y(m);
  for (auto& v : y) v = rng.uniform(-1, 1);
  y[4] += 3.0;
  Eta eta = Eta::from_ftran(y, 4);
  Matrix host_result = binv;
  eta.apply_to_matrix(host_result);
  auto dbinv = DeviceMatrix::upload(dev, 0, binv);
  dev_apply_eta(0, eta, dbinv);
  EXPECT_LT(max_abs_diff(dbinv.download(0), host_result), 1e-13);
}

TEST(DeviceBlas, MixedDeviceOperandsRejected) {
  gpu::Device dev_a, dev_b;
  Matrix a = Matrix::identity(4);
  Vector x(4, 1.0);
  auto da = DeviceMatrix::upload(dev_a, 0, a);
  auto dx = DeviceVector::upload(dev_b, 0, x);
  DeviceVector dy(dev_a, 4);
  EXPECT_THROW(dev_gemv(0, 1.0, da, dx, 0.0, dy), Error);
}

TEST(Batched, FactorAndSolveManySmall) {
  gpu::Device dev;
  Rng rng(67);
  const int n = 6, count = 20;
  std::vector<Matrix> mats;
  std::vector<Vector> xs, bs;
  for (int i = 0; i < count; ++i) {
    Matrix a = Matrix::random(n, n, rng);
    for (int d = 0; d < n; ++d) a(d, d) += 3.0;
    Vector x(n);
    for (auto& v : x) v = rng.uniform(-1, 1);
    Vector b(n, 0.0);
    gemv(1.0, a, x, 0.0, b);
    mats.push_back(std::move(a));
    xs.push_back(std::move(x));
    bs.push_back(std::move(b));
  }
  auto batch = DeviceBatch::upload(dev, 0, mats);
  auto pivots = batched_getrf(0, batch);
  Vector rhs;
  for (const auto& b : bs) rhs.insert(rhs.end(), b.begin(), b.end());
  auto drhs = DeviceVector::upload(dev, 0, rhs);
  batched_getrs(0, batch, pivots, drhs);
  Vector solved = drhs.download(0);
  for (int i = 0; i < count; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(solved[static_cast<std::size_t>(i) * n + j], xs[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1e-9);
    }
  }
  // All batch work ran in exactly two kernels (factor + solve) and two transfers.
  EXPECT_EQ(dev.stats().kernels, 2u);
  EXPECT_EQ(dev.stats().transfers_h2d, 2u);
}

TEST(Batched, SingularMemberIsolated) {
  gpu::Device dev;
  Rng rng(71);
  const int n = 4;
  std::vector<Matrix> mats;
  Matrix good = Matrix::random(n, n, rng);
  for (int d = 0; d < n; ++d) good(d, d) += 3.0;
  mats.push_back(good);
  mats.push_back(Matrix(n, n, 0.0));  // singular
  mats.push_back(good);
  auto batch = DeviceBatch::upload(dev, 0, mats);
  std::vector<int> singular;
  auto pivots = batched_getrf(0, batch, &singular);
  ASSERT_EQ(singular.size(), 1u);
  EXPECT_EQ(singular[0], 1);
  EXPECT_FALSE(pivots[0].empty());
  EXPECT_TRUE(pivots[1].empty());
  EXPECT_FALSE(pivots[2].empty());
}

TEST(Batched, OccupancyGrowsWithBatch) {
  EXPECT_LT(occupancy_for_elements(100), occupancy_for_elements(100000));
  EXPECT_DOUBLE_EQ(occupancy_for_elements(1 << 20), 1.0);
}

}  // namespace
}  // namespace gpumip::linalg
