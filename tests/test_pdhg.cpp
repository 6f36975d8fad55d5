// Restarted-PDHG backend (lp/pdhg.hpp): agreement with the simplex on the
// LP corpus, the KKT accuracy contract, restart and warm-start behavior,
// certificate detection, and the three-way method policy of
// lp/path_chooser.hpp (docs/METHODS.md).
#include <gtest/gtest.h>

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
#include "lp/pdhg.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "obs/metrics.hpp"
#include "problems/generators.hpp"
#include "support/rng.hpp"

namespace gpumip::lp {
namespace {

using linalg::Vector;

LpResult solve_pdhg(const LpModel& model, PdhgOptions opts = {}) {
  const StandardForm form = build_standard_form(model);
  PdhgSolver solver(form, opts);
  return solver.solve_default();
}

/// Objective agreement within the PDHG accuracy contract: the normalized
/// KKT score is below tol, so the objective error is O(tol · scale).
void expect_objective_near(const LpResult& pdhg, double reference, double tol) {
  ASSERT_EQ(pdhg.status, LpStatus::Optimal);
  EXPECT_NEAR(pdhg.objective, reference, tol * (1.0 + std::fabs(reference)));
}

// ---------- corpus agreement with the simplex ----------

TEST(Pdhg, TwoVariableMaximization) {
  LpModel m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(3.0), y = m.add_col(5.0);
  m.add_row_le({{x, 1.0}}, 4.0);
  m.add_row_le({{y, 2.0}}, 12.0);
  m.add_row_le({{x, 3.0}, {y, 2.0}}, 18.0);
  const StandardForm form = build_standard_form(m);
  PdhgSolver solver(form);
  LpResult r = solver.solve_default();
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(form.user_objective(r.objective), 36.0, 1e-4);
  EXPECT_NEAR(r.x[0], 2.0, 1e-3);
  EXPECT_NEAR(r.x[1], 6.0, 1e-3);
  // The accuracy contract: feasibility to tol-scale, no basis.
  EXPECT_LT(equality_residual(form, r.x), 1e-4);
  EXPECT_TRUE(within_bounds(form, r.x, 1e-9));  // projection is exact
  EXPECT_TRUE(r.basis.empty());
}

TEST(Pdhg, MinimizationWithGeRows) {
  LpModel m;
  const int x = m.add_col(2.0), y = m.add_col(3.0);
  m.add_row_ge({{x, 1.0}, {y, 1.0}}, 4.0);
  m.add_row_ge({{x, 1.0}, {y, 3.0}}, 6.0);
  expect_objective_near(solve_pdhg(m), 9.0, 1e-4);
}

TEST(Pdhg, EqualityConstraints) {
  LpModel m;
  const int x = m.add_col(1.0, 0, 8), y = m.add_col(2.0, 0, 8), z = m.add_col(3.0, 0, 8);
  m.add_row_eq({{x, 1.0}, {y, 1.0}, {z, 1.0}}, 10.0);
  m.add_row_eq({{x, 1.0}, {y, -1.0}}, 2.0);
  expect_objective_near(solve_pdhg(m), 14.0, 1e-4);
}

TEST(Pdhg, RangedRowAndNegativeBounds) {
  LpModel m;
  const int x = m.add_col(-1.0, 0, 4), y = m.add_col(0.0, 0, 4);
  m.add_row_range({{x, 1.0}, {y, 1.0}}, 2.0, 5.0);
  LpResult r = solve_pdhg(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 4.0, 1e-3);

  LpModel m2;
  const int a = m2.add_col(1.0, -5, 5), b = m2.add_col(1.0, -3, 3);
  m2.add_row_ge({{a, 1.0}, {b, 1.0}}, -6.0);
  expect_objective_near(solve_pdhg(m2), -6.0, 1e-4);
}

TEST(Pdhg, FixedVariablesRespected) {
  LpModel m;
  const int x = m.add_col(-1.0, 3, 3);  // fixed at 3
  const int y = m.add_col(-1.0, 0, 10);
  m.add_row_le({{x, 1.0}, {y, 1.0}}, 7.0);
  LpResult r = solve_pdhg(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_DOUBLE_EQ(r.x[0], 3.0);  // projection keeps fixed vars exact
  EXPECT_NEAR(r.x[1], 4.0, 1e-3);
}

TEST(Pdhg, FreeVariables) {
  LpModel m;
  const int x = m.add_col(0.0, -kInf, kInf), y = m.add_col(1.0, -kInf, kInf);
  m.add_row_ge({{y, 1.0}, {x, -1.0}}, -2.0);
  m.add_row_ge({{y, 1.0}, {x, 1.0}}, 0.0);
  expect_objective_near(solve_pdhg(m), -1.0, 1e-4);
}

TEST(Pdhg, BoundsOnlyProblem) {
  LpModel m;
  m.add_col(2.0, -1, 5);
  m.add_col(-3.0, 0, 7);
  expect_objective_near(solve_pdhg(m), 2.0 * -1 + -3.0 * 7, 1e-6);
}

// Property sweep: PDHG objective matches the simplex on random LPs — the
// same generator family the simplex/IPM agreement sweep uses.
class PdhgAgreement : public ::testing::TestWithParam<int> {};

TEST_P(PdhgAgreement, MatchesSimplexObjective) {
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
    terms.push_back(
        {static_cast<int>(rng.index(static_cast<std::size_t>(n))), rng.uniform(0.5, 1.0)});
    m.add_row_le(terms, rng.uniform(2.0, 10.0));
  }
  {
    std::vector<Term> all;
    for (int j = 0; j < n; ++j) all.push_back({j, 1.0});
    m.add_row_le(all, static_cast<double>(2 * n));
  }
  const StandardForm form = build_standard_form(m);
  LpResult sr = SimplexSolver(form).solve_default();
  ASSERT_EQ(sr.status, LpStatus::Optimal);
  PdhgOptions opts;
  opts.tol = 1e-7;
  LpResult pr = PdhgSolver(form, opts).solve_default();
  ASSERT_EQ(pr.status, LpStatus::Optimal) << "param " << GetParam();
  EXPECT_NEAR(pr.objective, sr.objective, 1e-4 * (1.0 + std::fabs(sr.objective)))
      << "param " << GetParam();
  EXPECT_LT(equality_residual(form, pr.x), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PdhgAgreement, ::testing::Range(0, 12));

// ---------- restarts ----------

TEST(Pdhg, RestartsFireAndAreCounted) {
  // A problem hard enough to need multiple restart cycles.
  Rng rng(1717);
  LpModel m;
  const int n = 40, rows = 25;
  for (int j = 0; j < n; ++j) m.add_col(rng.uniform(-1.0, 1.0), 0.0, 10.0);
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.flip(0.3)) terms.push_back({j, rng.uniform(0.1, 2.0)});
    }
    if (terms.empty()) terms.push_back({i % n, 1.0});
    m.add_row_le(terms, rng.uniform(5.0, 20.0));
  }
  LpResult r = solve_pdhg(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_GT(r.ops.restarts, 0);
  EXPECT_GT(r.ops.spmv, 2 * r.ops.iterations);  // 2 per iteration + KKT checks
  EXPECT_EQ(r.ops.iterations, r.iterations);
}

TEST(Pdhg, TighterRestartFactorStillConverges) {
  LpModel m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(3.0), y = m.add_col(5.0);
  m.add_row_le({{x, 1.0}}, 4.0);
  m.add_row_le({{y, 2.0}}, 12.0);
  m.add_row_le({{x, 3.0}, {y, 2.0}}, 18.0);
  PdhgOptions aggressive;
  aggressive.restart_factor = 0.9;  // restart almost every time progress shows
  aggressive.restart_max_interval = 200;
  expect_objective_near(solve_pdhg(m, aggressive), -36.0, 1e-4);
}

// ---------- warm start ----------

TEST(Pdhg, WarmStartFromOptimumIsCheap) {
  Rng rng(2121);
  LpModel m;
  const int n = 24, rows = 16;
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
  PdhgSolver solver(form);
  LpResult cold = solver.solve_default();
  ASSERT_EQ(cold.status, LpStatus::Optimal);

  PdhgWarmStart warm{cold.x, cold.duals};
  LpResult rewarm = solver.solve(form.lb, form.ub, &warm);
  ASSERT_EQ(rewarm.status, LpStatus::Optimal);
  EXPECT_NEAR(rewarm.objective, cold.objective, 1e-5 * (1.0 + std::fabs(cold.objective)));
  EXPECT_LT(rewarm.iterations, std::max<long>(cold.iterations / 4, 2));
}

TEST(Pdhg, WarmStartAfterBoundTighteningBeatsColdStart) {
  // The branch-and-bound pattern: tighten one variable bound, restart from
  // the parent's iterates (projected into the child box).
  Rng rng(2323);
  LpModel m;
  const int n = 24, rows = 16;
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
  PdhgSolver solver(form);
  LpResult root = solver.solve_default();
  ASSERT_EQ(root.status, LpStatus::Optimal);

  Vector lb = form.lb, ub = form.ub;
  ub[0] = std::max(0.0, std::floor(root.x[0] - 0.5));  // branching-like cut
  PdhgWarmStart warm{root.x, root.duals};
  LpResult warm_child = solver.solve(lb, ub, &warm);
  LpResult cold_child = solver.solve(lb, ub, nullptr);
  ASSERT_EQ(warm_child.status, LpStatus::Optimal);
  ASSERT_EQ(cold_child.status, LpStatus::Optimal);
  EXPECT_NEAR(warm_child.objective, cold_child.objective,
              1e-4 * (1.0 + std::fabs(cold_child.objective)));
  EXPECT_LT(warm_child.iterations, cold_child.iterations);
}

// ---------- infeasible / unbounded ----------

TEST(Pdhg, InfeasibleDetected) {
  LpModel m;
  const int x = m.add_col(1.0, 0, 10);
  m.add_row_ge({{x, 1.0}}, 5.0);
  m.add_row_le({{x, 1.0}}, 3.0);
  EXPECT_EQ(solve_pdhg(m).status, LpStatus::Infeasible);
}

TEST(Pdhg, InfeasibleEqualitySystem) {
  LpModel m;
  const int x = m.add_col(0.0), y = m.add_col(0.0);
  m.add_row_eq({{x, 1.0}, {y, 1.0}}, 2.0);
  m.add_row_eq({{x, 1.0}, {y, 1.0}}, 3.0);
  EXPECT_EQ(solve_pdhg(m).status, LpStatus::Infeasible);
}

TEST(Pdhg, UnboundedDetected) {
  LpModel m;
  const int x = m.add_col(-1.0);  // min -x, x >= 0 unconstrained above
  const int y = m.add_col(1.0);
  m.add_row_ge({{x, 1.0}, {y, 1.0}}, 1.0);
  EXPECT_EQ(solve_pdhg(m).status, LpStatus::Unbounded);
}

TEST(Pdhg, RejectsMalformedBounds) {
  LpModel m;
  m.add_col(1.0, 0.0, 4.0);
  m.add_col(-1.0, 0.0, 3.0);
  m.add_row_le({{0, 1.0}, {1, 1.0}}, 5.0);
  const StandardForm form = build_standard_form(m);
  const std::vector<double> lb(form.lb.begin(), form.lb.end());
  const std::vector<double> ub(form.ub.begin(), form.ub.end());
  PdhgSolver solver(form);
  auto code_of = [&](std::span<const double> l, std::span<const double> u) {
    try {
      (void)solver.solve(l, u);
    } catch (const Error& e) {
      return e.code();
    }
    return ErrorCode::kInternal;
  };
  // Short spans would be read past their end without the size check.
  const std::vector<double> short_lb(lb.begin(), lb.end() - 1);
  const std::vector<double> short_ub(ub.begin(), ub.end() - 1);
  EXPECT_EQ(code_of(short_lb, ub), ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(lb, short_ub), ErrorCode::kInvalidArgument);
  std::vector<double> crossed = lb;
  crossed[0] = ub[0] + 1.0;
  EXPECT_EQ(code_of(crossed, ub), ErrorCode::kInvalidArgument);
  EXPECT_EQ(solver.solve(lb, ub).status, LpStatus::Optimal);
}

TEST(Pdhg, IterationLimitReported) {
  Rng rng(31);
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
  PdhgOptions tiny;
  tiny.max_iterations = 8;  // far too few
  tiny.tol = 1e-12;
  LpResult r = solve_pdhg(m, tiny);
  EXPECT_EQ(r.status, LpStatus::IterationLimit);
  EXPECT_EQ(r.iterations, 8);
}

// ---------- bit-exact replay ----------

/// One solve's result, pinned bit for bit: the vectors by a 64-bit FNV-1a
/// hash of their bytes, so any changed bit (a signed zero included) changes
/// the pin.
struct Pinned {
  LpStatus status;
  long iterations;
  std::array<long, 14> ops;  ///< every LpOpStats field, declaration order
  double objective;
  std::uint64_t x, duals, reduced_costs;

  bool operator==(const Pinned&) const = default;
};

std::uint64_t bits_hash(const Vector& v) {
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

Pinned pin(const LpResult& r) {
  const LpOpStats& o = r.ops;
  return {r.status,
          r.iterations,
          {o.m, o.n, o.nnz, o.ftran, o.btran, o.price_full, o.eta_updates, o.refactor,
           o.iterations, o.bound_flips, o.cholesky, o.matvec_n, o.spmv, o.restarts},
          r.objective,
          bits_hash(r.x),
          bits_hash(r.duals),
          bits_hash(r.reduced_costs)};
}

/// The pin as a table row, printed on a mismatch so a deliberate change of
/// the numerics can re-record it.
std::string describe(const Pinned& p) {
  std::ostringstream out;
  out << "{LpStatus::" << lp_status_name(p.status) << ", " << p.iterations << ", {";
  for (std::size_t i = 0; i < p.ops.size(); ++i) out << (i ? ", " : "") << p.ops[i];
  out << "}, " << std::hexfloat << p.objective << std::hex << ", 0x" << p.x << "ull, 0x"
      << p.duals << "ull, 0x" << p.reduced_costs << "ull}";
  return out.str();
}

TEST(Pdhg, SeededSolvesAreBitExact) {
  // Golden values recorded with the CSR row-scatter Aᵀy and the seven-pass
  // iteration: the fused column/row passes must reproduce every iterate,
  // and so every result bit, of that reference.
  PdhgOptions batch_options;
  batch_options.tol = 1e-4;  // the lp_batch_pdhg benchmark's tolerance
  std::vector<std::pair<std::string, Pinned>> got;

  // Members of the lp_batch_pdhg shape: sparse 48x72 LPs at density 0.05.
  std::vector<StandardForm> members;
  for (std::uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    members.push_back(build_standard_form(problems::sparse_lp(48, 72, 0.05, rng)));
  }
  std::vector<LpResult> member_results;
  for (std::size_t k = 0; k < members.size(); ++k) {
    member_results.push_back(PdhgSolver(members[k], batch_options).solve_default());
    got.emplace_back("member " + std::to_string(k), pin(member_results.back()));
  }

  // A warm-started child of member 0: one upper bound cut to 80% of its
  // range, as the benchmark's siblings are.
  {
    const StandardForm& form = members[0];
    Vector ub = form.ub;
    ub[5] = form.lb[5] + 0.8 * (ub[5] - form.lb[5]);
    const PdhgWarmStart warm{member_results[0].x, member_results[0].duals};
    got.emplace_back("warm child",
                     pin(PdhgSolver(form, batch_options).solve(form.lb, ub, &warm)));
  }

  // The certificate paths. The infeasible instance maximizes, so the empty
  // column's cost is -0.0 and its reduced cost carries the sign of a zero
  // Aᵀy entry.
  {
    LpModel m;
    m.set_sense(Sense::Maximize);
    const int x = m.add_col(1.0, 0, 10);
    m.add_col(0.0, -3.0, -1.0);
    m.add_row_ge({{x, 1.0}}, 5.0);
    m.add_row_le({{x, 1.0}}, 3.0);
    const LpResult r = solve_pdhg(m);
    ASSERT_EQ(r.status, LpStatus::Infeasible);
    got.emplace_back("infeasible", pin(r));
  }
  {
    LpModel m;
    const int x = m.add_col(-1.0);
    const int y = m.add_col(1.0);
    m.add_row_ge({{x, 1.0}, {y, 1.0}}, 1.0);
    const LpResult r = solve_pdhg(m);
    ASSERT_EQ(r.status, LpStatus::Unbounded);
    got.emplace_back("unbounded", pin(r));
  }

  // The interior-point method forms its Aᵀy with the same kernel.
  got.emplace_back("interior point", pin(InteriorPointSolver(members[1]).solve_default()));

  const std::array<Pinned, 7> golden = {{
      // member 0, 1, 2
      {LpStatus::Optimal, 280, {48, 120, 205, 0, 0, 0, 0, 0, 280, 0, 0, 1150, 591, 5},
       -0x1.d1013f03a6924p+10, 0x52d917ffd4c97a95ull, 0xbd3a2c96b7bb2186ull,
       0xcbd63c0c920b7404ull},
      {LpStatus::Optimal, 280, {48, 120, 226, 0, 0, 0, 0, 0, 280, 0, 0, 1150, 591, 4},
       -0x1.deb8c0b9f321bp+10, 0xf2b7683f0144ecd1ull, 0x3cdddcb15600745ull,
       0x3b7621ae46116eb8ull},
      {LpStatus::Optimal, 280, {48, 120, 211, 0, 0, 0, 0, 0, 280, 0, 0, 1150, 591, 4},
       -0x1.bb19f9067cde8p+10, 0x5d982251d55f120dull, 0x15fa3d4b7b73a042ull,
       0xa586ba6d09661759ull},
      // warm child
      {LpStatus::Optimal, 40, {48, 120, 205, 0, 0, 0, 0, 0, 40, 0, 0, 166, 87, 0},
       -0x1.d100dc2e38d64p+10, 0x904434c0acd6c8f9ull, 0xa7c2c8d7e1c96ff7ull,
       0x83202f65144f5f50ull},
      // infeasible
      {LpStatus::Infeasible, 120, {2, 4, 4, 0, 0, 0, 0, 0, 120, 0, 0, 496, 257, 0}, 0x0p+0,
       0xff581b6b68d877d8ull, 0x88201fb960ff6465ull, 0x9bc64e4273c8dc38ull},
      // unbounded
      {LpStatus::Unbounded, 2320, {1, 3, 3, 0, 0, 0, 0, 0, 2320, 0, 0, 9578, 4939, 1}, 0x0p+0,
       0x81d23fd7003c2305ull, 0xa8c7f832281a39c5ull, 0x56b502c9795494e5ull},
      // interior point
      {LpStatus::Optimal, 8, {120, 192, 370, 0, 0, 0, 0, 0, 8, 0, 15, 47, 0, 0},
       -0x1.deb8aa2775f7fp+10, 0xccf00feb983e4657ull, 0x6c4be20140fed79dull,
       0xa2028bceae255c62ull},
  }};
  ASSERT_EQ(got.size(), golden.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_TRUE(got[k].second == golden[k])
        << got[k].first << " differs; got " << describe(got[k].second);
  }
}

// ---------- three-way method policy ----------

sparse::Csr random_csr(int m, int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<sparse::Triplet> t;
  for (int i = 0; i < m; ++i) {
    t.push_back({i, static_cast<int>(rng.index(static_cast<std::size_t>(n))), 1.0});
    for (int j = 0; j < n; ++j) {
      if (rng.flip(density)) t.push_back({i, j, rng.uniform(0.1, 1.0)});
    }
  }
  return sparse::csr_from_triplets(m, n, t);
}

TEST(MethodChooser, WarmBasisAlwaysSimplex) {
  const sparse::Csr big_sparse = random_csr(512, 768, 0.01, 7);
  MethodContext ctx;
  ctx.warm_basis = true;
  ctx.batch_size = 64;  // even under batching, a basis wins
  EXPECT_EQ(choose_method(big_sparse, ctx), LpMethod::Simplex);
}

TEST(MethodChooser, ColdSmallDenseIsSimplex) {
  const sparse::Csr small_dense = random_csr(32, 48, 0.5, 8);
  MethodContext ctx;
  EXPECT_EQ(choose_method(small_dense, ctx), LpMethod::Simplex);
}

TEST(MethodChooser, ColdLargeDenseIsInteriorPoint) {
  const sparse::Csr large_dense = random_csr(256, 384, 0.4, 9);
  MethodContext ctx;
  EXPECT_EQ(choose_method(large_dense, ctx), LpMethod::InteriorPoint);
}

TEST(MethodChooser, ColdHugeSparseIsPdhg) {
  // Sequential cold PDHG only pays at the scale where IPM's dense
  // factorization stops being an option (pdhg_min_rows).
  const sparse::Csr huge_sparse = random_csr(4096, 6144, 0.002, 10);
  MethodContext ctx;
  EXPECT_EQ(choose_method(huge_sparse, ctx), LpMethod::Pdhg);
}

TEST(MethodChooser, BatchOccupancyLowersPdhgBar) {
  // Mid-sized sparse instance: sequentially it is not worth PDHG's launch
  // count, but inside a big lockstep batch it is.
  const sparse::Csr mid_sparse = random_csr(96, 144, 0.02, 11);
  MethodContext sequential;
  EXPECT_NE(choose_method(mid_sparse, sequential), LpMethod::Pdhg);
  MethodContext batched;
  batched.batch_size = 64;
  EXPECT_EQ(choose_method(mid_sparse, batched), LpMethod::Pdhg);
}

TEST(MethodChooser, WarmIteratesLowerPdhgSizeBar) {
  const sparse::Csr mid_sparse = random_csr(96, 144, 0.02, 12);
  MethodContext cold;
  EXPECT_NE(choose_method(mid_sparse, cold), LpMethod::Pdhg);
  MethodContext warm;
  warm.warm_iterates = true;
  EXPECT_EQ(choose_method(mid_sparse, warm), LpMethod::Pdhg);
}

TEST(MethodChooser, TightToleranceDisqualifiesPdhg) {
  const sparse::Csr large_sparse = random_csr(512, 768, 0.005, 13);
  MethodContext ctx;
  ctx.batch_size = 64;  // a context that would otherwise pick PDHG
  ASSERT_EQ(choose_method(large_sparse, ctx), LpMethod::Pdhg);
  ctx.tol = 1e-10;  // tighter than first-order methods can certify
  EXPECT_NE(choose_method(large_sparse, ctx), LpMethod::Pdhg);
}

TEST(MethodChooser, PinForcesMethod) {
  // ctx.forced outranks every rule of the decision table, and each pinned
  // decision is still recorded, as forced; an unpinned one is not.
  const sparse::Csr small_dense = random_csr(16, 24, 0.5, 14);
  const sparse::Csr mid_sparse = random_csr(96, 144, 0.02, 15);
  const sparse::Csr large_dense = random_csr(256, 384, 0.4, 16);
  MethodContext warm_basis;  // rule 2
  warm_basis.warm_basis = true;
  MethodContext batched;  // rule 3
  batched.batch_size = 64;
  MethodContext warm_iterates;  // rule 4
  warm_iterates.warm_iterates = true;
  const MethodContext cold;  // rules 5 and 6
  struct Case {
    const sparse::Csr& a;
    MethodContext ctx;
    LpMethod unpinned;
    LpMethod pin;
  };
  const Case cases[] = {
      {small_dense, warm_basis, LpMethod::Simplex, LpMethod::Pdhg},
      {mid_sparse, batched, LpMethod::Pdhg, LpMethod::Simplex},
      {mid_sparse, warm_iterates, LpMethod::Pdhg, LpMethod::InteriorPoint},
      {large_dense, cold, LpMethod::InteriorPoint, LpMethod::Simplex},
      {small_dense, cold, LpMethod::Simplex, LpMethod::Pdhg},
  };
  const obs::Counter& forced = obs::counter("gpumip.lp.method.forced");
  for (const Case& c : cases) {
    std::uint64_t before = forced.value();
    ASSERT_EQ(choose_method(c.a, c.ctx), c.unpinned) << lp_method_name(c.unpinned);
    EXPECT_EQ(forced.value(), before);
    MethodContext pinned = c.ctx;
    pinned.forced = c.pin;
    before = forced.value();
    EXPECT_EQ(choose_method(c.a, pinned), c.pin) << lp_method_name(c.unpinned);
    EXPECT_EQ(forced.value() - before, obs::kObsEnabled ? 1u : 0u);
  }
}

TEST(MethodChooser, NamesAreStable) {
  // docs/METHODS.md keys on these exact strings
  // (check.sh's methods-doc gate greps them out of this switch).
  EXPECT_STREQ(lp_method_name(LpMethod::Simplex), "simplex");
  EXPECT_STREQ(lp_method_name(LpMethod::InteriorPoint), "interior_point");
  EXPECT_STREQ(lp_method_name(LpMethod::Pdhg), "pdhg");
}

}  // namespace
}  // namespace gpumip::lp
