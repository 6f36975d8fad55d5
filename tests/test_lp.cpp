#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "lp/interior_point.hpp"
#include "lp/model.hpp"
#include "lp/path_chooser.hpp"
#include "lp/presolve.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "obs/metrics.hpp"
#include "problems/generators.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

namespace gpumip::lp {
namespace {

using linalg::Vector;

LpResult solve_simplex(const LpModel& model, SimplexOptions opts = {}) {
  const StandardForm form = build_standard_form(model);
  SimplexSolver solver(form, opts);
  return solver.solve_default();
}

/// Verifies optimality conditions of a simplex result on a standard form:
/// feasibility, bound compliance, and reduced-cost signs.
void expect_optimal_kkt(const StandardForm& form, const LpResult& result) {
  ASSERT_EQ(result.status, LpStatus::Optimal);
  EXPECT_LT(equality_residual(form, result.x), 1e-6);
  EXPECT_TRUE(within_bounds(form, result.x, 1e-6));
  for (int j = 0; j < form.num_vars; ++j) {
    const std::size_t k = static_cast<std::size_t>(j);
    if (form.lb[k] == form.ub[k]) continue;
    switch (result.basis.status[k]) {
      case VarStatus::AtLower:
        EXPECT_GT(result.reduced_costs[k], -1e-6) << "var " << j;
        break;
      case VarStatus::AtUpper:
        EXPECT_LT(result.reduced_costs[k], 1e-6) << "var " << j;
        break;
      case VarStatus::Free:
        EXPECT_NEAR(result.reduced_costs[k], 0.0, 1e-6) << "var " << j;
        break;
      case VarStatus::Basic:
        EXPECT_NEAR(result.reduced_costs[k], 0.0, 1e-5) << "var " << j;
        break;
    }
  }
}

// ---------- textbook problems with known optima ----------

TEST(Simplex, TwoVariableMaximization) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0. Optimum 36 at (2,6).
  LpModel m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(3.0), y = m.add_col(5.0);
  m.add_row_le({{x, 1.0}}, 4.0);
  m.add_row_le({{y, 2.0}}, 12.0);
  m.add_row_le({{x, 3.0}, {y, 2.0}}, 18.0);
  const StandardForm form = build_standard_form(m);
  SimplexSolver solver(form);
  LpResult r = solver.solve_default();
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(form.user_objective(r.objective), 36.0, 1e-8);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 6.0, 1e-8);
  expect_optimal_kkt(form, r);
}

TEST(Simplex, MinimizationWithGeRows) {
  // min 2x + 3y st x + y >= 4, x + 3y >= 6, x,y >= 0. Optimum at (3,1): 9.
  LpModel m;
  const int x = m.add_col(2.0), y = m.add_col(3.0);
  m.add_row_ge({{x, 1.0}, {y, 1.0}}, 4.0);
  m.add_row_ge({{x, 1.0}, {y, 3.0}}, 6.0);
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 9.0, 1e-8);
  EXPECT_NEAR(r.x[0], 3.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
}

TEST(Simplex, EqualityConstraints) {
  // min x + 2y + 3z st x + y + z = 10, x - y = 2, bounds 0..8.
  // Optimum: maximize x, then y: x=6? Check: x - y = 2 -> x = y + 2.
  // x + y + z = 10 -> z = 8 - 2y. min (y+2) + 2y + 3(8-2y) = 26 - 3y,
  // maximize y: y <= 8, z >= 0 -> y <= 4, x = y+2 <= 8 ok. y=4: x=6,z=0, obj 14.
  LpModel m;
  const int x = m.add_col(1.0, 0, 8), y = m.add_col(2.0, 0, 8), z = m.add_col(3.0, 0, 8);
  m.add_row_eq({{x, 1.0}, {y, 1.0}, {z, 1.0}}, 10.0);
  m.add_row_eq({{x, 1.0}, {y, -1.0}}, 2.0);
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 14.0, 1e-8);
  EXPECT_NEAR(r.x[0], 6.0, 1e-8);
  EXPECT_NEAR(r.x[1], 4.0, 1e-8);
  EXPECT_NEAR(r.x[2], 0.0, 1e-8);
}

TEST(Simplex, RangedRow) {
  // min -x st 2 <= x + y <= 5, 0 <= x,y <= 4. Optimum x=4 (y in [0,1] slack).
  LpModel m;
  const int x = m.add_col(-1.0, 0, 4), y = m.add_col(0.0, 0, 4);
  m.add_row_range({{x, 1.0}, {y, 1.0}}, 2.0, 5.0);
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 4.0, 1e-8);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with x in [-5, 5], y in [-3, 3], x + y >= -6. Optimum (-5,-1)?
  // x+y >= -6 binds: obj = -6. Any split works; objective must be -6.
  LpModel m;
  const int x = m.add_col(1.0, -5, 5), y = m.add_col(1.0, -3, 3);
  m.add_row_ge({{x, 1.0}, {y, 1.0}}, -6.0);
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -6.0, 1e-8);
}

TEST(Simplex, FreeVariable) {
  // min y st y >= x - 2, y >= -x, x free, y free. Optimum y = -1 at x = 1.
  LpModel m;
  const int x = m.add_col(0.0, -kInf, kInf), y = m.add_col(1.0, -kInf, kInf);
  m.add_row_ge({{y, 1.0}, {x, -1.0}}, -2.0);  // y - x >= -2
  m.add_row_ge({{y, 1.0}, {x, 1.0}}, 0.0);    // y + x >= 0
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-8);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
}

TEST(Simplex, InfeasibleDetected) {
  LpModel m;
  const int x = m.add_col(1.0, 0, 10);
  m.add_row_ge({{x, 1.0}}, 5.0);
  m.add_row_le({{x, 1.0}}, 3.0);
  EXPECT_EQ(solve_simplex(m).status, LpStatus::Infeasible);
}

TEST(Simplex, InfeasibleEqualitySystem) {
  LpModel m;
  const int x = m.add_col(0.0), y = m.add_col(0.0);
  m.add_row_eq({{x, 1.0}, {y, 1.0}}, 2.0);
  m.add_row_eq({{x, 1.0}, {y, 1.0}}, 3.0);
  EXPECT_EQ(solve_simplex(m).status, LpStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  LpModel m;
  const int x = m.add_col(-1.0);  // min -x, x >= 0 unconstrained above
  const int y = m.add_col(1.0);
  m.add_row_ge({{x, 1.0}, {y, 1.0}}, 1.0);
  EXPECT_EQ(solve_simplex(m).status, LpStatus::Unbounded);
}

TEST(Simplex, FixedVariablesRespected) {
  LpModel m;
  const int x = m.add_col(-1.0, 3, 3);  // fixed at 3
  const int y = m.add_col(-1.0, 0, 10);
  m.add_row_le({{x, 1.0}, {y, 1.0}}, 7.0);
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
  EXPECT_NEAR(r.x[1], 4.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate corner: several constraints meet at the optimum.
  LpModel m;
  const int x = m.add_col(-0.75), y = m.add_col(150.0), z = m.add_col(-0.02), w = m.add_col(6.0);
  m.add_row_le({{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}}, 0.0);
  m.add_row_le({{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}}, 0.0);
  m.add_row_le({{z, 1.0}}, 1.0);
  LpResult r = solve_simplex(m);
  // Beale's cycling example: must terminate at optimum -0.05.
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-8);
}

TEST(Simplex, EmptyProblemAndBoundsOnly) {
  LpModel m;
  m.add_col(2.0, -1, 5);   // min 2x -> x = -1
  m.add_col(-3.0, 0, 7);   // min -3y -> y = 7
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 2.0 * -1 + -3.0 * 7, 1e-9);
}

TEST(Simplex, BoundFlipPath) {
  // Encourage a bound flip: box variable with a loose row.
  LpModel m;
  const int x = m.add_col(-1.0, 0, 2);
  const int y = m.add_col(-1.0, 0, 2);
  m.add_row_le({{x, 1.0}, {y, 1.0}}, 10.0);  // never binds
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-9);
}

// ---------- warm start and dual simplex ----------

TEST(Simplex, WarmStartReducesIterations) {
  Rng rng(101);
  LpModel m;
  const int n = 30, rows = 20;
  for (int j = 0; j < n; ++j) m.add_col(rng.uniform(-1.0, 1.0), 0.0, 10.0);
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.flip(0.4)) terms.push_back({j, rng.uniform(0.1, 1.0)});
    }
    if (terms.empty()) terms.push_back({i % n, 1.0});
    m.add_row_le(terms, rng.uniform(5.0, 15.0));
  }
  const StandardForm form = build_standard_form(m);
  SimplexSolver solver(form);
  LpResult cold = solver.solve_default();
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  LpResult warm = solver.solve(form.lb, form.ub, &cold.basis);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  EXPECT_LT(warm.iterations, std::max<long>(cold.iterations / 4, 2));
}

TEST(DualSimplex, ResolveAfterBoundTightening) {
  // Solve, then tighten a bound on a basic variable and dual-resolve; the
  // result must match a cold solve under the new bounds.
  LpModel m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(3.0, 0, 10), y = m.add_col(5.0, 0, 10);
  m.add_row_le({{x, 1.0}}, 4.0);
  m.add_row_le({{y, 2.0}}, 12.0);
  m.add_row_le({{x, 3.0}, {y, 2.0}}, 18.0);
  const StandardForm form = build_standard_form(m);
  SimplexSolver solver(form);
  LpResult root = solver.solve_default();
  ASSERT_EQ(root.status, LpStatus::Optimal);

  // Tighten x <= 1 (branching-like change).
  Vector lb = form.lb, ub = form.ub;
  ub[0] = 1.0;
  LpResult dual = solver.resolve_dual(lb, ub, root.basis);
  LpResult cold = solver.solve(lb, ub, nullptr);
  ASSERT_EQ(dual.status, LpStatus::Optimal);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  EXPECT_NEAR(dual.objective, cold.objective, 1e-7);
  EXPECT_NEAR(form.user_objective(dual.objective), 33.0, 1e-7);  // x=1, y=6
}

TEST(DualSimplex, DetectsChildInfeasibility) {
  LpModel m;
  const int x = m.add_col(1.0, 0, 10), y = m.add_col(1.0, 0, 10);
  m.add_row_ge({{x, 1.0}, {y, 1.0}}, 15.0);
  const StandardForm form = build_standard_form(m);
  SimplexSolver solver(form);
  LpResult root = solver.solve_default();
  ASSERT_EQ(root.status, LpStatus::Optimal);
  Vector lb = form.lb, ub = form.ub;
  ub[0] = 2.0;
  ub[1] = 2.0;  // x + y <= 4 < 15: infeasible child
  EXPECT_EQ(solver.resolve_dual(lb, ub, root.basis).status, LpStatus::Infeasible);
}

TEST(DualSimplex, RandomizedAgreementWithColdSolve) {
  Rng rng(202);
  int inherited = 0;
  for (int trial = 0; trial < 10; ++trial) {
    LpModel m;
    const int n = 12, rows = 8;
    for (int j = 0; j < n; ++j) m.add_col(rng.uniform(-2.0, 2.0), 0.0, 5.0);
    for (int i = 0; i < rows; ++i) {
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j) {
        if (rng.flip(0.5)) terms.push_back({j, rng.uniform(0.2, 1.5)});
      }
      if (terms.empty()) terms.push_back({i % n, 1.0});
      m.add_row_le(terms, rng.uniform(4.0, 12.0));
    }
    const StandardForm form = build_standard_form(m);
    SimplexSolver solver(form);
    LpResult root = solver.solve_default();
    ASSERT_EQ(root.status, LpStatus::Optimal) << "trial " << trial;
    // Tighten a random variable's upper bound below its LP value.
    Vector lb = form.lb, ub = form.ub;
    const int j = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    ub[static_cast<std::size_t>(j)] = std::max(0.0, std::floor(root.x[static_cast<std::size_t>(j)] - 0.5));
    LpResult dual = solver.resolve_dual(lb, ub, root.basis);
    LpResult cold = solver.solve(lb, ub, nullptr);
    ASSERT_EQ(dual.status, cold.status) << "trial " << trial;
    if (cold.status == LpStatus::Optimal) {
      EXPECT_NEAR(dual.objective, cold.objective, 1e-6) << "trial " << trial;
    }

    // A child that installs the parent's final B⁻¹ reaches the same answer
    // as one that refactorizes the same basis, without refactorizing. (A
    // basis that kept an artificial is no warm start either way.)
    if (std::any_of(root.basis.basic.begin(), root.basis.basic.end(),
                    [&](int v) { return v >= form.num_vars; })) {
      continue;
    }
    ASSERT_EQ(root.binv.rows(), form.num_rows);
    ASSERT_EQ(root.binv.cols(), form.num_rows);
    const BasisInverse parent{&root.binv, root.etas_since_refactor};
    const LpResult child = solver.resolve_dual(lb, ub, root.basis, &parent);
    EXPECT_FALSE(dual.inherited_inverse);
    EXPECT_EQ(dual.ops.refactor, 1) << "trial " << trial;
    EXPECT_TRUE(child.inherited_inverse) << "trial " << trial;
    EXPECT_EQ(child.ops.refactor, 0) << "trial " << trial;
    ASSERT_EQ(child.status, dual.status) << "trial " << trial;
    if (dual.status == LpStatus::Optimal) {
      EXPECT_NEAR(child.objective, dual.objective, 1e-9) << "trial " << trial;
      for (std::size_t k = 0; k < dual.x.size(); ++k) {
        EXPECT_NEAR(child.x[k], dual.x[k], 1e-9) << "trial " << trial << " var " << k;
      }
      EXPECT_EQ(child.etas_since_refactor, root.etas_since_refactor + child.ops.eta_updates);
    }
    ++inherited;
  }
  EXPECT_GE(inherited, 5);
}

TEST(DualSimplex, UnusableInheritedInverseRefactorizesOnce) {
  // An inverse whose eta count is due, or whose size does not match the
  // basis, is ignored: the warm start refactorizes exactly once.
  LpModel m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(3.0, 0, 10), y = m.add_col(5.0, 0, 10);
  m.add_row_le({{x, 1.0}}, 4.0);
  m.add_row_le({{y, 2.0}}, 12.0);
  m.add_row_le({{x, 3.0}, {y, 2.0}}, 18.0);
  const StandardForm form = build_standard_form(m);
  SimplexSolver solver(form);
  LpResult root = solver.solve_default();
  ASSERT_EQ(root.status, LpStatus::Optimal);
  Vector lb = form.lb, ub = form.ub;
  ub[0] = 1.0;

  const linalg::Matrix wrong_size(form.num_rows + 1, form.num_rows + 1);
  for (const BasisInverse& unusable :
       {BasisInverse{&root.binv, solver.options().refactor_interval},
        BasisInverse{&root.binv, solver.options().refactor_interval + 5},
        BasisInverse{&wrong_size, 0}}) {
    const LpResult child = solver.resolve_dual(lb, ub, root.basis, &unusable);
    ASSERT_EQ(child.status, LpStatus::Optimal);
    EXPECT_FALSE(child.inherited_inverse);
    EXPECT_EQ(child.ops.refactor, 1);
    EXPECT_NEAR(form.user_objective(child.objective), 33.0, 1e-7);  // x=1, y=6
  }
  const BasisInverse usable{&root.binv, root.etas_since_refactor};
  const LpResult child = solver.resolve_dual(lb, ub, root.basis, &usable);
  EXPECT_TRUE(child.inherited_inverse);
  EXPECT_EQ(child.ops.refactor, 0);
  EXPECT_NEAR(form.user_objective(child.objective), 33.0, 1e-7);
}

TEST(DualSimplex, FreeStatusOnABoundedColumnIsRepaired) {
  // A basis arriving from outside (a shipped subproblem) may flag a bounded
  // nonbasic column Free. Free columns rest at 0, outside x's [1, 5], so
  // the warm start puts the column at its bound instead.
  LpModel m;
  const int x = m.add_col(2.0, 1.0, 5.0), y = m.add_col(1.0, 0.0, 5.0);
  m.add_row_ge({{x, 1.0}, {y, 1.0}}, 3.0);
  const StandardForm form = build_standard_form(m);
  SimplexSolver solver(form);
  const LpResult cold = solver.solve_default();
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  ASSERT_EQ(cold.basis.status[static_cast<std::size_t>(x)], VarStatus::AtLower);

  Basis free_x = cold.basis;
  free_x.status[static_cast<std::size_t>(x)] = VarStatus::Free;
  const LpResult warm = solver.resolve_dual(form.lb, form.ub, free_x);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.x[static_cast<std::size_t>(x)], 1.0, 1e-9);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);  // x = 1, y = 2
}

// ---------- bit-exact replay ----------

/// One simplex solve, pinned bit for bit: the vectors and the final B⁻¹ by
/// a 64-bit FNV-1a hash of their bytes, so any changed bit (a signed zero
/// included) changes the pin.
struct SimplexPin {
  LpStatus status;
  long iterations;
  std::array<long, 14> ops;  ///< every LpOpStats field, declaration order
  double objective;
  std::uint64_t x, duals, reduced_costs, binv;
  int etas_since_refactor;
  bool inherited_inverse;

  bool operator==(const SimplexPin&) const = default;
};

std::uint64_t bits_hash(std::span<const double> v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

SimplexPin pin(const LpResult& r) {
  const LpOpStats& o = r.ops;
  return {r.status,
          r.iterations,
          {o.m, o.n, o.nnz, o.ftran, o.btran, o.price_full, o.eta_updates, o.refactor,
           o.iterations, o.bound_flips, o.cholesky, o.matvec_n, o.spmv, o.restarts},
          r.objective,
          bits_hash(r.x),
          bits_hash(r.duals),
          bits_hash(r.reduced_costs),
          bits_hash({r.binv.data(), static_cast<std::size_t>(r.binv.rows()) *
                                        static_cast<std::size_t>(r.binv.cols())}),
          r.etas_since_refactor,
          r.inherited_inverse};
}

/// The pin as a table row, printed on a mismatch so a deliberate change of
/// the numerics can re-record it.
std::string describe(const SimplexPin& p) {
  std::ostringstream out;
  out << "{LpStatus::" << lp_status_name(p.status) << ", " << p.iterations << ", {";
  for (std::size_t i = 0; i < p.ops.size(); ++i) out << (i ? ", " : "") << p.ops[i];
  out << "}, " << std::hexfloat << p.objective << std::hex << ", 0x" << p.x << "ull, 0x"
      << p.duals << "ull, 0x" << p.reduced_costs << "ull, 0x" << p.binv << "ull" << std::dec
      << ", " << p.etas_since_refactor << ", " << (p.inherited_inverse ? "true" : "false")
      << "}";
  return out.str();
}

/// The bnb_tree relaxation shape (random_mip 16x28, maximized) plus a
/// zero-cost column (its minimization cost is -0.0), a >= row and an
/// equality row, so phase 1 has artificials to drive out.
LpModel pinned_model(std::uint64_t seed) {
  Rng rng(seed);
  problems::RandomMipConfig config;
  config.rows = 16;
  config.cols = 28;
  LpModel m = problems::random_mip(config, rng).lp();
  const int z = m.add_col(0.0, 0.0, 5.0);
  m.add_row_ge({{0, 1.0}, {3, 2.0}, {z, 1.0}}, 2.5);
  m.add_row_eq({{1, 1.0}, {2, 1.0}, {z, -1.0}}, 1.25);
  return m;
}

TEST(Simplex, SeededSolvesAreBitExact) {
  // Golden values recorded with the gemv_t duals, the two-column_dot dual
  // ratio test, the row-wise LU elimination and the zero-filled workspace
  // inverse: the kernels that replaced them must reproduce every result bit.
  std::vector<std::pair<std::string, SimplexPin>> got;
  for (std::uint64_t seed : {1, 2}) {
    const std::string tag = "seed " + std::to_string(seed) + ": ";
    LpModel model = pinned_model(seed);
    const StandardForm form = build_standard_form(model);
    SimplexSolver solver(form);
    const LpResult root = solver.solve_default();
    ASSERT_EQ(root.status, LpStatus::Optimal);
    ASSERT_TRUE(std::all_of(root.basis.basic.begin(), root.basis.basic.end(),
                            [&](int v) { return v < form.num_vars; }));
    got.emplace_back(tag + "cold primal", pin(root));

    // A branching child: the first fractional column's upper bound drops
    // to its floor.
    int j = 0;
    while (j < form.num_struct &&
           std::fabs(root.x[static_cast<std::size_t>(j)] -
                     std::round(root.x[static_cast<std::size_t>(j)])) < 1e-6) {
      ++j;
    }
    ASSERT_LT(j, form.num_struct);
    Vector ub = form.ub;
    ub[static_cast<std::size_t>(j)] = std::floor(root.x[static_cast<std::size_t>(j)]);
    const BasisInverse inherited{&root.binv, root.etas_since_refactor};
    const LpResult warm = solver.resolve_dual(form.lb, ub, root.basis, &inherited);
    EXPECT_TRUE(warm.inherited_inverse);
    got.emplace_back(tag + "dual, inherited B⁻¹", pin(warm));
    const LpResult refactored = solver.resolve_dual(form.lb, ub, root.basis);
    EXPECT_EQ(refactored.ops.refactor, 1);
    got.emplace_back(tag + "dual, refactorized", pin(refactored));

    // The optimal basis of the opposite objective is primal feasible but
    // not dual feasible: resolve_dual falls back to a warm primal solve,
    // which installs that solve's B⁻¹.
    model.set_sense(Sense::Minimize);
    const StandardForm flipped = build_standard_form(model);
    const LpResult other = SimplexSolver(flipped).solve_default();
    ASSERT_EQ(other.status, LpStatus::Optimal);
    const BasisInverse other_inverse{&other.binv, other.etas_since_refactor};
    got.emplace_back(tag + "dual-infeasible fallback",
                     pin(solver.resolve_dual(form.lb, form.ub, other.basis, &other_inverse)));
  }

  const std::array<SimplexPin, 8> golden = {{
      // seed 1: cold primal, dual with inherited B⁻¹, dual refactorized,
      // dual-infeasible fallback
      {LpStatus::Optimal, 51, {18, 46, 146, 51, 53, 53, 51, 0, 51, 0, 0, 0, 0, 0},
       -0x1.26332ed7272cep+8, 0xe715c5900faab192ull, 0x6144441d9f560838ull,
       0x65e71315a1412404ull, 0x95a3876fe4a77f8bull, 51, false},
      {LpStatus::Optimal, 3, {18, 46, 146, 4, 7, 4, 3, 0, 3, 0, 0, 0, 0, 0},
       -0x1.24bf7524f9ff9p+8, 0xd12f662fc7626f27ull, 0x178d38e1c93586ddull,
       0x8fccc41c8d35563bull, 0xc5afb89404f3f833ull, 54, true},
      {LpStatus::Optimal, 3, {18, 46, 146, 4, 7, 4, 3, 1, 3, 0, 0, 0, 0, 0},
       -0x1.24bf7524f9ff9p+8, 0x15d21d55dcff8939ull, 0x69b3a8e9d0afccf7ull,
       0x4e52ba8d34a7ba76ull, 0xca9583eef76bb206ull, 3, false},
      {LpStatus::Optimal, 36, {18, 46, 146, 37, 37, 37, 32, 0, 36, 4, 0, 0, 0, 0},
       -0x1.26332ed7272dp+8, 0x9fd78c6c036dfbebull, 0x7f523704b5d42531ull,
       0xadee55cef8dfd3d5ull, 0x732e781b70725b5aull, 46, true},
      // seed 2, same four
      {LpStatus::Optimal, 53, {18, 46, 158, 53, 55, 55, 50, 0, 53, 3, 0, 0, 0, 0},
       -0x1.5e93056bdb8a2p+8, 0x20217e5a1cee2cd7ull, 0xff3dc90c667decb5ull,
       0x97638aef3fa908dbull, 0x90307b0e098de5c3ull, 50, false},
      {LpStatus::Optimal, 1, {18, 46, 158, 2, 3, 2, 1, 0, 1, 0, 0, 0, 0, 0},
       -0x1.5e8927a2920c5p+8, 0x8979cbc6e5ed068full, 0xda721781e7dabf80ull,
       0xf700d0662de0de5eull, 0xacf7e06c306aad3bull, 51, true},
      {LpStatus::Optimal, 1, {18, 46, 158, 2, 3, 2, 1, 1, 1, 0, 0, 0, 0, 0},
       -0x1.5e8927a2920c4p+8, 0xc207fca155c8c3d1ull, 0x13707f045e3b62f0ull,
       0x9baa7f1659106491ull, 0x488b966a20d33c2ull, 1, false},
      {LpStatus::Optimal, 27, {18, 46, 158, 28, 28, 28, 24, 0, 27, 3, 0, 0, 0, 0},
       -0x1.5e93056bdb8ap+8, 0x108c7a2a5f99d516ull, 0x18de3286f4fbb1a1ull,
       0x915332a06e18a5a2ull, 0x4996f59e1bb9ca35ull, 36, true},
  }};
  ASSERT_EQ(got.size(), golden.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_TRUE(got[k].second == golden[k])
        << got[k].first << " differs; got " << describe(got[k].second);
  }
}

TEST(Simplex, RepeatedRefactorizationIsBitIdentical) {
  // The two children of a B&B parent whose inverse was evicted refactorize
  // the same basis on one solver; the second is served from the solver's
  // memo and must match a fresh solver's LU bit for bit, still counting as
  // one refactorization.
  auto reused = [] {
    return obs::kObsEnabled ? obs::counter("gpumip.lp.refactor.reused").value() : 0u;
  };
  for (std::uint64_t seed : {1, 2}) {
    const std::string tag = "seed " + std::to_string(seed);
    const LpModel model = pinned_model(seed);
    const StandardForm form = build_standard_form(model);
    SimplexSolver solver(form);
    const LpResult root = solver.solve_default();
    ASSERT_EQ(root.status, LpStatus::Optimal) << tag;
    int j = 0;
    while (j < form.num_struct &&
           std::fabs(root.x[static_cast<std::size_t>(j)] -
                     std::round(root.x[static_cast<std::size_t>(j)])) < 1e-6) {
      ++j;
    }
    ASSERT_LT(j, form.num_struct) << tag;
    const double value = root.x[static_cast<std::size_t>(j)];
    Vector down_ub = form.ub;
    down_ub[static_cast<std::size_t>(j)] = std::floor(value);
    Vector up_lb = form.lb;
    up_lb[static_cast<std::size_t>(j)] = std::ceil(value);

    const LpResult down = solver.resolve_dual(form.lb, down_ub, root.basis);
    const std::uint64_t before_up = reused();
    const LpResult up = solver.resolve_dual(up_lb, form.ub, root.basis);
    EXPECT_EQ(down.ops.refactor, 1) << tag;
    EXPECT_EQ(up.ops.refactor, 1) << tag;
    if (obs::kObsEnabled) {
      EXPECT_EQ(reused() - before_up, 1u) << tag << ": up child not reused";
    }
    EXPECT_TRUE(pin(down) == pin(SimplexSolver(form).resolve_dual(form.lb, down_ub, root.basis)))
        << tag << ": down child differs from a fresh solver's";
    EXPECT_TRUE(pin(up) == pin(SimplexSolver(form).resolve_dual(up_lb, form.ub, root.basis)))
        << tag << ": up child differs from a fresh solver's";
  }

  // x + y = 1 and x + y = 3 with x, y in [0, 1]: phase 1 pivots x in for
  // the first artificial, refactorizes [x, art1] and stops infeasible. The
  // second identical solve refactorizes that same ordered basis first, but
  // an artificial column's sign comes from the bounds, so it is not reused.
  LpModel infeasible;
  const int x = infeasible.add_col(1.0, 0.0, 1.0);
  const int y = infeasible.add_col(1.0, 0.0, 1.0);
  infeasible.add_row_eq({{x, 1.0}, {y, 1.0}}, 1.0);
  infeasible.add_row_eq({{x, 1.0}, {y, 1.0}}, 3.0);
  const StandardForm form = build_standard_form(infeasible);
  SimplexOptions every_pivot;
  every_pivot.refactor_interval = 1;
  SimplexSolver solver(form, every_pivot);
  const LpResult first = solver.solve_default();
  ASSERT_EQ(first.status, LpStatus::Infeasible);
  ASSERT_TRUE(std::any_of(first.basis.basic.begin(), first.basis.basic.end(),
                          [&](int v) { return v >= form.num_vars; }));
  ASSERT_GE(first.ops.refactor, 1);
  const std::uint64_t before = reused();
  const LpResult second = solver.solve_default();
  EXPECT_EQ(reused(), before) << "a basis with an artificial column was reused";
  EXPECT_TRUE(pin(second) == pin(first)) << describe(pin(second)) << " vs " << describe(pin(first));
}

// ---------- interior point ----------

TEST(InteriorPoint, MatchesSimplexOnTextbookLp) {
  LpModel m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(3.0), y = m.add_col(5.0);
  m.add_row_le({{x, 1.0}}, 4.0);
  m.add_row_le({{y, 2.0}}, 12.0);
  m.add_row_le({{x, 3.0}, {y, 2.0}}, 18.0);
  const StandardForm form = build_standard_form(m);
  InteriorPointSolver ipm(form);
  const obs::Counter& cholesky = obs::counter("gpumip.lp.ops.cholesky");
  const std::uint64_t cholesky_before = cholesky.value();
  LpResult r = ipm.solve_default();
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(form.user_objective(r.objective), 36.0, 1e-5);
  EXPECT_NEAR(r.x[0], 2.0, 1e-4);
  EXPECT_NEAR(r.x[1], 6.0, 1e-4);
  // The solve's op recipe reaches the lp.ops.* counters, as for simplex
  // and PDHG.
  EXPECT_GT(r.ops.cholesky, 0);
  EXPECT_EQ(cholesky.value() - cholesky_before,
            obs::kObsEnabled ? static_cast<std::uint64_t>(r.ops.cholesky) : 0u);
}

TEST(InteriorPoint, HandlesBoundedVariables) {
  LpModel m;
  const int x = m.add_col(-1.0, 0.0, 2.5), y = m.add_col(-2.0, 1.0, 3.0);
  m.add_row_le({{x, 1.0}, {y, 1.0}}, 4.0);
  const StandardForm form = build_standard_form(m);
  LpResult simplex_r = SimplexSolver(form).solve_default();
  LpResult ipm_r = InteriorPointSolver(form).solve_default();
  ASSERT_EQ(simplex_r.status, LpStatus::Optimal);
  ASSERT_EQ(ipm_r.status, LpStatus::Optimal);
  EXPECT_NEAR(ipm_r.objective, simplex_r.objective, 1e-5);
}

TEST(InteriorPoint, HandlesFreeVariablesAndEqualities) {
  LpModel m;
  const int x = m.add_col(1.0, -kInf, kInf), y = m.add_col(2.0, 0.0, kInf);
  m.add_row_eq({{x, 1.0}, {y, 1.0}}, 3.0);
  m.add_row_ge({{x, 1.0}}, -1.0);
  const StandardForm form = build_standard_form(m);
  LpResult simplex_r = SimplexSolver(form).solve_default();
  LpResult ipm_r = InteriorPointSolver(form).solve_default();
  ASSERT_EQ(simplex_r.status, LpStatus::Optimal);
  ASSERT_EQ(ipm_r.status, LpStatus::Optimal);
  EXPECT_NEAR(ipm_r.objective, simplex_r.objective, 1e-5);
}

TEST(InteriorPoint, DenseAndSparsePathsAgree) {
  Rng rng(303);
  LpModel m;
  const int n = 20, rows = 14;
  for (int j = 0; j < n; ++j) m.add_col(rng.uniform(-1.0, 0.0), 0.0, 4.0);
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.flip(0.3)) terms.push_back({j, rng.uniform(0.2, 1.0)});
    }
    if (terms.empty()) terms.push_back({i % n, 1.0});
    m.add_row_le(terms, rng.uniform(3.0, 9.0));
  }
  const StandardForm form = build_standard_form(m);
  InteriorPointOptions dense_opts;
  dense_opts.force_dense = true;
  InteriorPointOptions sparse_opts;
  sparse_opts.force_sparse = true;
  LpResult rd = InteriorPointSolver(form, dense_opts).solve_default();
  LpResult rs = InteriorPointSolver(form, sparse_opts).solve_default();
  ASSERT_EQ(rd.status, LpStatus::Optimal);
  ASSERT_EQ(rs.status, LpStatus::Optimal);
  EXPECT_NEAR(rd.objective, rs.objective, 1e-5);
}

// ---------- property test: simplex vs IPM on random LPs ----------

class RandomLpAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpAgreement, SimplexAndIpmAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  LpModel m;
  const int n = 8 + GetParam() % 12;
  const int rows = 5 + GetParam() % 8;
  for (int j = 0; j < n; ++j) m.add_col(rng.uniform(-2.0, 1.0), 0.0, kInf);
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.flip(0.5)) terms.push_back({j, rng.uniform(0.1, 1.0)});
    }
    terms.push_back({static_cast<int>(rng.index(static_cast<std::size_t>(n))), rng.uniform(0.5, 1.0)});
    m.add_row_le(terms, rng.uniform(2.0, 10.0));
  }
  // Every column must appear in some row, else a negative-cost column is
  // unbounded; add a capping row over all columns.
  {
    std::vector<Term> all;
    for (int j = 0; j < n; ++j) all.push_back({j, 1.0});
    m.add_row_le(all, static_cast<double>(2 * n));
  }
  const StandardForm form = build_standard_form(m);
  LpResult sr = SimplexSolver(form).solve_default();
  LpResult ir = InteriorPointSolver(form).solve_default();
  ASSERT_EQ(sr.status, LpStatus::Optimal);
  ASSERT_EQ(ir.status, LpStatus::Optimal);
  EXPECT_NEAR(sr.objective, ir.objective, 1e-4 * (1.0 + std::fabs(sr.objective)));
  expect_optimal_kkt(form, sr);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpAgreement, ::testing::Range(0, 12));

// ---------- op accounting ----------

TEST(OpStats, SimplexRecordsWork) {
  LpModel m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(3.0), y = m.add_col(5.0);
  m.add_row_le({{x, 1.0}}, 4.0);
  m.add_row_le({{y, 2.0}}, 12.0);
  m.add_row_le({{x, 3.0}, {y, 2.0}}, 18.0);
  LpResult r = solve_simplex(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_GT(r.ops.iterations, 0);
  EXPECT_GT(r.ops.ftran, 0);
  EXPECT_GT(r.ops.btran, 0);
  EXPECT_GT(r.ops.price_full, 0);
  EXPECT_EQ(r.ops.m, 3);
  EXPECT_GT(cpu_seconds(r.ops), 0.0);
}

TEST(OpStats, ChargeToDeviceLaunchesKernels) {
  LpOpStats stats;
  stats.m = 50;
  stats.n = 100;
  stats.nnz = 500;
  stats.ftran = 10;
  stats.btran = 10;
  stats.price_full = 10;
  stats.eta_updates = 9;
  stats.refactor = 1;
  gpu::Device dev;
  charge_to_device(dev, 0, stats, /*sparse_pricing=*/true);
  EXPECT_EQ(dev.stats().kernels, 10u + 10 + 10 + 9 + 1);
  EXPECT_GT(dev.synchronize(), 0.0);
}

// ---------- presolve ----------

TEST(Presolve, FixedColumnSubstitution) {
  LpModel m;
  const int x = m.add_col(1.0, 2.0, 2.0);  // fixed
  const int y = m.add_col(1.0, 0.0, 10.0);
  m.add_row_le({{x, 1.0}, {y, 1.0}}, 5.0);
  PresolveResult pr = presolve(m);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.cols_removed, 1);
  EXPECT_EQ(pr.reduced.num_cols(), 1);
  // After substituting x = 2, the row is the singleton y <= 3, which
  // presolve absorbs into the column bound and removes.
  EXPECT_EQ(pr.reduced.num_rows(), 0);
  EXPECT_NEAR(pr.reduced.col(0).ub, 3.0, 1e-12);
  Vector full = pr.postsolve(Vector{1.5});
  EXPECT_NEAR(full[0], 2.0, 1e-12);
  EXPECT_NEAR(full[1], 1.5, 1e-12);
}

TEST(Presolve, SingletonRowBecomesBound) {
  LpModel m;
  const int x = m.add_col(-1.0, 0.0, 100.0);
  m.add_row_le({{x, 2.0}}, 10.0);  // x <= 5
  PresolveResult pr = presolve(m);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.rows_removed, 1);
  EXPECT_NEAR(pr.reduced.col(0).ub, 5.0, 1e-12);
}

TEST(Presolve, DetectsInfeasibleBounds) {
  LpModel m;
  const int x = m.add_col(0.0, 0.0, 4.0);
  m.add_row_ge({{x, 1.0}}, 5.0);  // x >= 5 vs x <= 4
  EXPECT_TRUE(presolve(m).infeasible);
}

TEST(Presolve, IntegerBoundRounding) {
  LpModel m;
  const int x = m.add_col(0.0, 0.0, 10.0);
  m.add_row_le({{x, 2.0}}, 7.0);  // x <= 3.5 -> integer: x <= 3
  PresolveResult pr = presolve(m, {true});
  ASSERT_FALSE(pr.infeasible);
  EXPECT_NEAR(pr.reduced.col(0).ub, 3.0, 1e-12);
}

TEST(Presolve, PreservesOptimum) {
  Rng rng(404);
  LpModel m;
  const int n = 10;
  for (int j = 0; j < n; ++j) m.add_col(rng.uniform(-1.0, 1.0), 0.0, 5.0);
  m.col(3).lb = m.col(3).ub = 2.0;  // a fixed var
  for (int i = 0; i < 6; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.flip(0.4)) terms.push_back({j, rng.uniform(0.2, 1.0)});
    }
    if (terms.empty()) terms.push_back({i % n, 1.0});
    m.add_row_le(terms, rng.uniform(4.0, 12.0));
  }
  m.add_row_le({{5, 1.0}}, 2.0);  // singleton
  LpResult direct = solve_simplex(m);
  PresolveResult pr = presolve(m);
  ASSERT_FALSE(pr.infeasible);
  LpResult reduced = solve_simplex(pr.reduced);
  ASSERT_EQ(direct.status, LpStatus::Optimal);
  ASSERT_EQ(reduced.status, LpStatus::Optimal);
  // Same objective once the fixed column's cost contribution is added back.
  Vector full = pr.postsolve(std::span<const double>(reduced.x.data(), pr.reduced.num_cols()));
  EXPECT_NEAR(m.objective_value(full), direct.objective, 1e-6);
}

// ---------- path chooser ----------

TEST(PathChooser, RoutesByDensityAndSize) {
  Rng rng(505);
  // Small matrix: always dense regardless of sparsity.
  std::vector<sparse::Triplet> t;
  for (int i = 0; i < 20; ++i) t.push_back({i, i, 1.0});
  EXPECT_EQ(choose_path(sparse::csr_from_triplets(20, 20, t)), CodePath::DenseGpu);
  // Large sparse: sparse path.
  t.clear();
  for (int i = 0; i < 300; ++i) t.push_back({i, i, 1.0});
  EXPECT_EQ(choose_path(sparse::csr_from_triplets(300, 300, t)), CodePath::SparseHybrid);
  // Large dense: dense path.
  t.clear();
  for (int i = 0; i < 300; ++i) {
    for (int j = 0; j < 300; j += 3) t.push_back({i, j, 1.0});
  }
  EXPECT_EQ(choose_path(sparse::csr_from_triplets(300, 300, t)), CodePath::DenseGpu);
}

// ---------- standard form ----------

TEST(StandardForm, ShapesAndSlacks) {
  LpModel m;
  const int x = m.add_col(1.0);
  m.add_row_le({{x, 1.0}}, 5.0);
  m.add_row_ge({{x, 1.0}}, 1.0);
  m.add_row_eq({{x, 1.0}}, 3.0);
  m.add_row_range({{x, 1.0}}, 1.0, 4.0);
  const StandardForm form = build_standard_form(m);
  EXPECT_EQ(form.num_rows, 4);
  EXPECT_EQ(form.num_struct, 1);
  EXPECT_EQ(form.num_vars, 4);  // 1 struct + 3 slacks (equality has none)
  EXPECT_EQ(form.slack_of_row[2], -1);
  // Ranged slack has range ub - lb = 3.
  const int s3 = form.slack_of_row[3];
  EXPECT_NEAR(form.ub[static_cast<std::size_t>(s3)] - form.lb[static_cast<std::size_t>(s3)], 3.0,
              1e-12);
}

TEST(StandardForm, MaximizationNegatesObjective) {
  LpModel m;
  m.set_sense(Sense::Maximize);
  m.add_col(7.0);
  const StandardForm form = build_standard_form(m);
  EXPECT_DOUBLE_EQ(form.c[0], -7.0);
  EXPECT_DOUBLE_EQ(form.user_objective(-14.0), 14.0);
}

}  // namespace
}  // namespace gpumip::lp
