#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mip/branching.hpp"
#include "mip/solver.hpp"
#include "obs/obs.hpp"
#include "problems/generators.hpp"
#include "sparse/ops.hpp"

namespace gpumip::mip {
namespace {

using problems::RandomMipConfig;

MipResult solve(const MipModel& model, MipOptions opts = {}) {
  BnbSolver solver(model, std::move(opts));
  return solver.solve();
}

TEST(MipModel, BuildersAndIntegrality) {
  MipModel m;
  const int a = m.add_col(1.0);
  const int b = m.add_int_col(1.0, 0, 5);
  const int c = m.add_bin_col(1.0);
  EXPECT_FALSE(m.is_integer(a));
  EXPECT_TRUE(m.is_integer(b));
  EXPECT_TRUE(m.is_integer(c));
  EXPECT_EQ(m.num_integer(), 2);
  EXPECT_TRUE(m.is_integral(linalg::Vector{0.5, 2.0, 1.0}));
  EXPECT_FALSE(m.is_integral(linalg::Vector{0.5, 2.5, 1.0}));
}

/// MipModel::is_feasible with the model's CSR rebuilt for the call and the
/// row activities formed by spmv: the reference for the check on prebuilt
/// rows.
bool feasible_by_rebuild(const MipModel& m, std::span<const double> x, double tol) {
  for (int j = 0; j < m.num_cols(); ++j) {
    const double v = x[static_cast<std::size_t>(j)];
    if (v < m.lp().col(j).lb - tol || v > m.lp().col(j).ub + tol) return false;
  }
  const sparse::Csr a = m.lp().matrix();
  linalg::Vector activity(static_cast<std::size_t>(m.num_rows()), 0.0);
  sparse::spmv(1.0, a, x.subspan(0, static_cast<std::size_t>(m.num_cols())), 0.0, activity);
  for (int i = 0; i < m.num_rows(); ++i) {
    const double v = activity[static_cast<std::size_t>(i)];
    if (v < m.lp().row(i).lb - tol || v > m.lp().row(i).ub + tol) return false;
  }
  return true;
}

TEST(MipModel, FeasibilityOnPrebuiltRowsMatchesRebuild) {
  // Cut-strengthened random MIPs: on random points, and on points whose
  // activity sits exactly on a row's upper bound or one ulp past it, the
  // check on rows built once agrees with the per-call rebuild.
  int cut_rows = 0;
  int feasible = 0;
  int on_bound_feasible = 0;
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    RandomMipConfig cfg;
    cfg.rows = 10;
    cfg.cols = 16;
    BnbSolver solver(problems::random_mip(cfg, rng));
    ASSERT_EQ(solver.solve().status, MipStatus::Optimal);
    MipModel m = solver.working_model();  // a copy: row bounds move below
    cut_rows += m.num_rows() - cfg.rows;
    const sparse::Csr rows = m.lp().matrix();
    for (int trial = 0; trial < 200; ++trial) {
      linalg::Vector x(static_cast<std::size_t>(m.num_cols()));
      for (int j = 0; j < m.num_cols(); ++j) {
        x[static_cast<std::size_t>(j)] =
            m.is_integer(j) ? static_cast<double>(rng.uniform_int(0, 1)) : rng.uniform(0.0, 1.0);
      }
      for (double tol : {1e-6, 0.0}) {
        const bool expected = feasible_by_rebuild(m, x, tol);
        EXPECT_EQ(m.is_feasible(x, rows, tol), expected) << "seed " << seed << " trial " << trial;
        feasible += expected ? 1 : 0;
      }
      const int i = trial % m.num_rows();
      linalg::Vector activity(static_cast<std::size_t>(m.num_rows()), 0.0);
      sparse::spmv(1.0, rows, x, 0.0, activity);
      const double on = activity[static_cast<std::size_t>(i)];
      lp::RowDef& row = m.lp().row(i);
      const lp::RowDef saved = row;
      for (double ub : {on, std::nextafter(on, -lp::kInf)}) {
        row.ub = ub;
        row.lb = std::min(saved.lb, ub);
        for (double tol : {1e-6, 0.0}) {
          const bool expected = feasible_by_rebuild(m, x, tol);
          EXPECT_EQ(m.is_feasible(x, rows, tol), expected)
              << "seed " << seed << " trial " << trial << " row " << i << " ub " << ub;
          on_bound_feasible += expected && ub == on && tol == 0.0 ? 1 : 0;
        }
      }
      row = saved;
    }
  }
  EXPECT_GT(cut_rows, 0);
  EXPECT_GT(feasible, 100);
  EXPECT_GT(on_bound_feasible, 50);
}

TEST(Bnb, SimpleTwoVarInteger) {
  // max x + y st 2x + y <= 5, x + 3y <= 7, x,y int >= 0.
  // LP opt fractional; integer optimum 3 (e.g. x=2,y=1 or x=1, y=2).
  MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_int_col(1.0, 0, 10), y = m.add_int_col(1.0, 0, 10);
  m.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 5.0);
  m.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 7.0);
  MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
  EXPECT_TRUE(m.is_integral(r.x));
  EXPECT_TRUE(m.is_feasible(r.x));
}

TEST(Bnb, KnapsackAgainstDp) {
  // Exact knapsack via DP cross-check (integer weights).
  Rng rng(7);
  const int n = 14;
  std::vector<int> w(n);
  std::vector<double> v(n);
  MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  std::vector<lp::Term> row;
  int total = 0;
  for (int j = 0; j < n; ++j) {
    w[static_cast<std::size_t>(j)] = static_cast<int>(rng.uniform_int(1, 12));
    v[static_cast<std::size_t>(j)] = static_cast<double>(rng.uniform_int(1, 30));
    m.add_bin_col(v[static_cast<std::size_t>(j)]);
    row.push_back({j, static_cast<double>(w[static_cast<std::size_t>(j)])});
    total += w[static_cast<std::size_t>(j)];
  }
  const int cap = total / 2;
  m.lp().add_row_le(row, cap);
  // DP.
  std::vector<double> dp(static_cast<std::size_t>(cap) + 1, 0.0);
  for (int j = 0; j < n; ++j) {
    for (int cw = cap; cw >= w[static_cast<std::size_t>(j)]; --cw) {
      dp[static_cast<std::size_t>(cw)] =
          std::max(dp[static_cast<std::size_t>(cw)],
                   dp[static_cast<std::size_t>(cw - w[static_cast<std::size_t>(j)])] +
                       v[static_cast<std::size_t>(j)]);
    }
  }
  MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, dp[static_cast<std::size_t>(cap)], 1e-7);
}

TEST(Bnb, InfeasibleMip) {
  MipModel m;
  const int x = m.add_int_col(1.0, 0, 10);
  m.lp().add_row_range({{x, 2.0}}, 3.0, 3.5);  // 2x in [3,3.5] has no integer x
  MipResult r = solve(m);
  EXPECT_EQ(r.status, MipStatus::Infeasible);
  EXPECT_FALSE(r.has_solution);
}

TEST(Bnb, UnboundedMip) {
  MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  m.add_int_col(1.0, 0, lp::kInf);
  MipOptions opts;
  opts.enable_cuts = false;
  opts.enable_heuristics = false;
  MipResult r = solve(m, opts);
  EXPECT_EQ(r.status, MipStatus::Unbounded);
}

TEST(Bnb, MixedIntegerContinuous) {
  // max 4x + 3y, x int, y cont; 2x + y <= 10, x + 3y <= 15.
  MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_int_col(4.0, 0, 10);
  const int y = m.add_col(3.0, 0, 10);
  m.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 10.0);
  m.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 15.0);
  MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  // x=3 -> y <= min(4, 4) = 4: obj 24; x=4 -> y <= 2: 22; x=3,y=4: 24.
  EXPECT_NEAR(r.objective, 24.0, 1e-6);
  EXPECT_NEAR(r.x[0], 3.0, 1e-6);
  EXPECT_NEAR(r.x[1], 4.0, 1e-6);
}

TEST(Bnb, NodeLimitReported) {
  Rng rng(11);
  RandomMipConfig cfg;
  cfg.rows = 12;
  cfg.cols = 24;
  MipModel m = problems::random_mip(cfg, rng);
  MipOptions opts;
  opts.max_nodes = 2;
  opts.enable_heuristics = false;
  opts.enable_cuts = false;
  MipResult r = solve(m, opts);
  EXPECT_EQ(r.status, MipStatus::NodeLimit);
  EXPECT_LE(r.stats.nodes_evaluated, 2);
}

// The core correctness property: branch-and-bound equals brute-force
// enumeration across random instances, for every node selection crossed
// with every LP method, each with and without cuts and heuristics.
class BnbMatchesEnumeration : public ::testing::TestWithParam<int> {};

TEST_P(BnbMatchesEnumeration, RandomSmallMips) {
  const int param = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(param) * 31);
  RandomMipConfig cfg;
  cfg.rows = 4 + param % 4;
  cfg.cols = 5 + param % 3;
  cfg.density = 0.5;
  cfg.integer_fraction = 0.8;
  cfg.bound = 3.0;
  MipModel m = problems::random_mip(cfg, rng);
  MipResult exact = solve_by_enumeration(m);
  ASSERT_EQ(exact.status, MipStatus::Optimal);

  for (NodeSelection selection :
       {NodeSelection::BestFirst, NodeSelection::DepthFirst, NodeSelection::GpuLocality}) {
    for (lp::LpMethod method :
         {lp::LpMethod::Simplex, lp::LpMethod::InteriorPoint, lp::LpMethod::Pdhg}) {
      for (bool cuts : {false, true}) {
        for (bool heuristics : {false, true}) {
          MipOptions opts;
          opts.node_selection = selection;
          opts.lp_method = method;
          opts.pdhg.tol = 1e-8;
          opts.enable_cuts = cuts;
          opts.enable_heuristics = heuristics;
          MipResult r = solve(m, opts);
          const std::string label = std::string(node_selection_name(selection)) + "/" +
                                    lp::lp_method_name(method) +
                                    " cuts=" + std::to_string(cuts) +
                                    " heur=" + std::to_string(heuristics);
          ASSERT_EQ(r.status, MipStatus::Optimal) << label;
          EXPECT_NEAR(r.objective, exact.objective, 1e-6) << label;
          EXPECT_TRUE(m.is_integral(r.x)) << label;
          EXPECT_TRUE(m.is_feasible(r.x)) << label;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BnbMatchesEnumeration, ::testing::Range(0, 8));

TEST(Bnb, ProblemFamiliesSolve) {
  Rng rng(21);
  {
    MipModel m = problems::knapsack(15, rng);
    MipResult r = solve(m);
    ASSERT_EQ(r.status, MipStatus::Optimal);
    EXPECT_TRUE(m.is_feasible(r.x));
  }
  {
    MipModel m = problems::set_cover(12, 8, rng);
    MipResult r = solve(m);
    ASSERT_EQ(r.status, MipStatus::Optimal);
    EXPECT_TRUE(m.is_feasible(r.x));
  }
  {
    MipModel m = problems::generalized_assignment(3, 6, rng);
    MipResult r = solve(m);
    ASSERT_EQ(r.status, MipStatus::Optimal);
    EXPECT_TRUE(m.is_feasible(r.x));
  }
  {
    MipModel m = problems::unit_commitment(3, 4, rng);
    MipResult r = solve(m);
    ASSERT_EQ(r.status, MipStatus::Optimal);
    EXPECT_TRUE(m.is_feasible(r.x));
  }
}

TEST(Anatomy, CountsAreConsistent) {
  Rng rng(31);
  RandomMipConfig cfg;
  cfg.rows = 10;
  cfg.cols = 16;
  MipModel m = problems::random_mip(cfg, rng);
  MipOptions opts;
  opts.enable_cuts = false;
  opts.enable_heuristics = false;
  BnbSolver solver(m, opts);
  MipResult r = solver.solve();
  ASSERT_EQ(r.status, MipStatus::Optimal);
  const TreeAnatomy& anatomy = r.stats.anatomy;
  // Figure 1's invariant: at completion, no node remains active; every node
  // is branched or a classified leaf.
  EXPECT_EQ(anatomy.total_nodes, anatomy.branched + anatomy.leaves());
  // A binary tree: branched nodes have exactly 2 children, so
  // total = 2*branched + 1 (when no child was skipped as empty).
  EXPECT_GE(anatomy.total_nodes, 2 * anatomy.branched);
  EXPECT_GT(anatomy.leaves(), 0);
  EXPECT_GE(anatomy.active_peak, 1);
}

TEST(Anatomy, RenderAsciiShowsStates) {
  MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_int_col(1.0, 0, 10), y = m.add_int_col(1.0, 0, 10);
  m.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 5.0);
  m.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 7.0);
  MipOptions opts;
  opts.enable_cuts = false;
  opts.enable_heuristics = false;
  BnbSolver solver(m, opts);
  static_cast<void>(solver.solve());
  const std::string art = solver.pool().render_ascii();
  EXPECT_NE(art.find("#0"), std::string::npos);
  EXPECT_NE(art.find("branched"), std::string::npos);
  EXPECT_NE(art.find("feasible"), std::string::npos);
}

TEST(Trace, RecordsPerNodeOps) {
  Rng rng(41);
  RandomMipConfig cfg;
  cfg.rows = 8;
  cfg.cols = 12;
  MipModel m = problems::random_mip(cfg, rng);
  MipOptions opts;
  opts.enable_cuts = false;
  opts.enable_heuristics = false;
  BnbSolver solver(m, opts);
  MipResult r = solver.solve();
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_EQ(static_cast<long>(solver.trace().size()), r.stats.nodes_evaluated);
  long total_iters = 0;
  for (const NodeTrace& t : solver.trace()) total_iters += t.ops.iterations;
  EXPECT_EQ(total_iters, r.stats.lp_iterations);
  // The root is never hot; children evaluated right after their parent are.
  EXPECT_FALSE(solver.trace().front().hot);
}

TEST(Trace, ChildrenInheritTheParentInverse) {
  // Branching changes bounds, never B, so a child starts from its parent's
  // final B⁻¹: on 16x28 random MIPs (the perfbench bnb_tree shape) well
  // under one in three node solves refactorizes.
  long nodes = 0, refactors = 0, inherited = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    RandomMipConfig cfg;
    cfg.rows = 16;
    cfg.cols = 28;
    cfg.bound = 4.0;
    BnbSolver solver(problems::random_mip(cfg, rng));
    MipResult r = solver.solve();
    ASSERT_EQ(r.status, MipStatus::Optimal) << "seed " << seed;
    nodes += r.stats.nodes_evaluated;
    refactors += r.stats.total_ops.refactor;
    for (const NodeTrace& t : solver.trace()) inherited += t.inherited ? 1 : 0;
    EXPECT_FALSE(solver.trace().front().inherited);  // the root has no parent
  }
  ASSERT_GT(nodes, 100);
  EXPECT_LT(static_cast<double>(refactors) / static_cast<double>(nodes), 0.3);
  EXPECT_GT(inherited, nodes / 2);
}

TEST(Trace, InverseStoreEvictionKeepsTheOptimum) {
  // Jeroslow-style parity rows (2·Σx + y = odd, y in [0, 1]) give LP bounds
  // that stay flat for many levels, so the best-first frontier grows far
  // past the store's 64 slots. More than 128 active nodes means some slot
  // was evicted: a slot serves at most two children, and one with an active
  // child is never reclaimed. Evicted children refactorize; the optimum
  // must still match enumeration.
  for (int rows : {2, 3, 4}) {
    for (std::uint64_t seed : {1u, 2u}) {
      Rng rng(seed);
      MipModel m;
      std::vector<int> x;
      for (int i = 0; i < 13; ++i) x.push_back(m.add_bin_col(1e-3 * rng.uniform(0.0, 1.0)));
      for (int r = 0; r < rows; ++r) {
        std::vector<lp::Term> terms{{m.add_col(1.0, 0.0, 1.0), 1.0}};
        int count = 0;
        for (int v : x) {
          if (rng.uniform(0.0, 1.0) < 0.6) {
            terms.push_back({v, 2.0});
            ++count;
          }
        }
        m.lp().add_row_eq(terms, static_cast<double>(count | 1));
      }
      const MipResult exact = solve_by_enumeration(m);
      ASSERT_EQ(exact.status, MipStatus::Optimal);
      MipOptions opts;
      opts.enable_cuts = false;
      opts.enable_heuristics = false;
      opts.lp_method = lp::LpMethod::Simplex;
      BnbSolver solver(m, opts);
      const MipResult r = solver.solve();
      const std::string label = "rows " + std::to_string(rows) + " seed " + std::to_string(seed);
      EXPECT_GT(r.stats.anatomy.active_peak, 2 * 64) << label;
      ASSERT_EQ(r.status, MipStatus::Optimal) << label;
      EXPECT_NEAR(r.objective, exact.objective, 1e-9) << label;
      EXPECT_TRUE(m.is_integral(r.x)) << label;
      EXPECT_TRUE(m.is_feasible(r.x)) << label;
    }
  }
}

TEST(Trace, GpuLocalityRaisesHotFraction) {
  Rng rng(51);
  RandomMipConfig cfg;
  cfg.rows = 12;
  cfg.cols = 20;
  cfg.bound = 4.0;
  MipModel m = problems::random_mip(cfg, rng);
  auto hot_fraction = [&](NodeSelection sel) {
    MipOptions opts;
    opts.node_selection = sel;
    opts.enable_cuts = false;
    opts.enable_heuristics = false;
    BnbSolver solver(m, opts);
    MipResult r = solver.solve();
    if (r.stats.nodes_evaluated == 0) return 0.0;
    return static_cast<double>(r.stats.hot_nodes) / static_cast<double>(r.stats.nodes_evaluated);
  };
  const double best_first = hot_fraction(NodeSelection::BestFirst);
  const double locality = hot_fraction(NodeSelection::GpuLocality);
  // The GPU-aware policy must reuse the resident matrix strictly more often.
  EXPECT_GT(locality, best_first);
}

TEST(Snapshot, SerializationRoundTrip) {
  ConsistentSnapshot snap;
  snap.incumbent_objective = -12.5;
  snap.incumbent_x = {1.0, 0.0, 3.0};
  snap.nodes_solved_so_far = 42;
  snap.frontier.push_back({{0, 0, 0}, {5, 5, 5}, -20.0, 2});
  snap.frontier.push_back({{1, 0, 0}, {5, 2, 5}, -18.5, 3});
  ConsistentSnapshot back = ConsistentSnapshot::from_string(snap.to_string());
  EXPECT_DOUBLE_EQ(back.incumbent_objective, snap.incumbent_objective);
  EXPECT_EQ(back.incumbent_x, snap.incumbent_x);
  EXPECT_EQ(back.nodes_solved_so_far, 42);
  ASSERT_EQ(back.frontier.size(), 2u);
  EXPECT_DOUBLE_EQ(back.frontier[1].bound, -18.5);
  EXPECT_EQ(back.frontier[1].depth, 3);
  EXPECT_EQ(back.frontier[0].ub, snap.frontier[0].ub);
}

TEST(Snapshot, CorruptInputRejected) {
  EXPECT_THROW(ConsistentSnapshot::from_string("garbage"), Error);
  EXPECT_THROW(ConsistentSnapshot::from_string("gpumip-snapshot-v1\n1 2\n"), Error);
}

TEST(Snapshot, MidSearchSnapshotPreservesOptimum) {
  // Capture snapshots during search; resuming from any of them must reach
  // the same optimum (the paper's consistency definition).
  Rng rng(61);
  RandomMipConfig cfg;
  cfg.rows = 10;
  cfg.cols = 18;
  cfg.bound = 4.0;
  MipModel m = problems::random_mip(cfg, rng);

  std::vector<ConsistentSnapshot> snapshots;
  MipOptions opts;
  opts.enable_cuts = false;  // cuts change the model; keep forms identical
  opts.enable_heuristics = false;
  opts.snapshot_interval = 5;
  opts.on_snapshot = [&](const ConsistentSnapshot& s) { snapshots.push_back(s); };
  BnbSolver solver(m, opts);
  MipResult full = solver.solve();
  ASSERT_EQ(full.status, MipStatus::Optimal);
  ASSERT_FALSE(snapshots.empty());

  MipOptions resume_opts;
  resume_opts.enable_cuts = false;
  resume_opts.enable_heuristics = false;
  for (std::size_t i = 0; i < snapshots.size(); i += std::max<std::size_t>(1, snapshots.size() / 3)) {
    BnbSolver resumed(m, resume_opts);
    MipResult r = resumed.solve_from(snapshots[i]);
    ASSERT_EQ(r.status, MipStatus::Optimal) << "snapshot " << i;
    EXPECT_NEAR(r.objective, full.objective, 1e-6) << "snapshot " << i;
  }
}

TEST(Snapshot, CapturedBasesStartTheFrontierWarm) {
  // A mid-search snapshot carries each frontier node's parent basis; a
  // fresh solver resumed from it starts every such node with the dual
  // simplex from that basis (no phase 1) and reaches solve()'s optimum. The
  // text format drops the bases, and the cold-started resume agrees too.
  Rng rng(61);
  RandomMipConfig cfg;
  cfg.rows = 10;
  cfg.cols = 18;
  cfg.bound = 4.0;
  MipModel m = problems::random_mip(cfg, rng);

  std::vector<ConsistentSnapshot> snapshots;
  MipOptions opts;
  opts.enable_cuts = false;
  opts.enable_heuristics = false;
  opts.snapshot_interval = 5;
  opts.on_snapshot = [&](const ConsistentSnapshot& s) { snapshots.push_back(s); };
  const MipResult full = BnbSolver(m, opts).solve();
  ASSERT_EQ(full.status, MipStatus::Optimal);
  ASSERT_GE(snapshots.size(), 2u);
  const ConsistentSnapshot& snap = snapshots[snapshots.size() / 2];
  ASSERT_GE(snap.frontier.size(), 2u);
  for (const SnapshotNode& node : snap.frontier) ASSERT_FALSE(node.basis.empty());

  MipOptions resume_opts;
  resume_opts.enable_cuts = false;
  resume_opts.enable_heuristics = false;
  BnbSolver warm(m, resume_opts);
  const MipResult r = warm.solve_from(snap);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, full.objective, 1e-6);

  // Frontier nodes are pushed first, so their ids are 0..frontier.size()-1.
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  lp::SimplexSolver lp_solver(form);
  int warm_nodes = 0;
  long warm_iterations = 0, cold_iterations = 0;
  for (const NodeTrace& tr : warm.trace()) {
    if (tr.node_id >= static_cast<int>(snap.frontier.size())) continue;
    const SnapshotNode& node = snap.frontier[static_cast<std::size_t>(tr.node_id)];
    const lp::LpResult dual = lp_solver.resolve_dual(node.lb, node.ub, node.basis);
    const lp::LpResult cold = lp_solver.solve(node.lb, node.ub, nullptr);
    EXPECT_EQ(tr.ops.iterations, dual.ops.iterations) << "node " << tr.node_id;
    EXPECT_EQ(tr.ops.refactor, dual.ops.refactor) << "node " << tr.node_id;
    EXPECT_EQ(tr.lp_status, dual.status) << "node " << tr.node_id;
    warm_iterations += tr.ops.iterations;
    cold_iterations += cold.ops.iterations;
    ++warm_nodes;
  }
  ASSERT_GE(warm_nodes, 1);
  EXPECT_LT(warm_iterations, cold_iterations);

  // Reused solver, text round trip: bounds only, every node cold-starts.
  const ConsistentSnapshot text = ConsistentSnapshot::from_string(snap.to_string());
  for (const SnapshotNode& node : text.frontier) EXPECT_TRUE(node.basis.empty());
  const MipResult cold = warm.solve_from(text);
  ASSERT_EQ(cold.status, MipStatus::Optimal);
  EXPECT_NEAR(cold.objective, full.objective, 1e-6);
}

// A resumed search must refuse a snapshot that does not fit the model,
// before it evaluates a single node.
void expect_rejected(BnbSolver& solver, const ConsistentSnapshot& snap) {
  try {
    (void)solver.solve_from(snap);
    ADD_FAILURE() << "snapshot accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
  EXPECT_TRUE(solver.trace().empty());
}

/// One frontier node carrying the model's own standard-form bounds.
ConsistentSnapshot root_snapshot(const lp::StandardForm& form) {
  ConsistentSnapshot snap;
  snap.frontier.push_back({form.lb, form.ub, -1e300, 0});
  return snap;
}

TEST(Snapshot, ResumeRejectsBoundsOutsideTheModel) {
  Rng rng(5);
  const MipModel m = problems::knapsack(8, rng);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  MipOptions opts;
  opts.enable_cuts = false;
  EXPECT_NO_THROW(check_resumable(m, form, root_snapshot(form), opts.int_tol));

  // Every structural upper bound raised by 3: the relaxation would search
  // points the model excludes.
  ConsistentSnapshot widened = root_snapshot(form);
  for (int j = 0; j < form.num_struct; ++j) widened.frontier[0].ub[static_cast<std::size_t>(j)] += 3.0;
  widened = ConsistentSnapshot::from_string(widened.to_string());
  BnbSolver solver(m, opts);
  expect_rejected(solver, widened);

  ConsistentSnapshot short_node = root_snapshot(form);
  short_node.frontier[0].lb.pop_back();
  short_node.frontier[0].ub.pop_back();
  expect_rejected(solver, short_node);
}

TEST(Snapshot, ResumeRejectsMisfitIncumbent) {
  Rng rng(5);
  const MipModel m = problems::knapsack(8, rng);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  MipOptions opts;
  opts.enable_cuts = false;
  BnbSolver solver(m, opts);
  const auto n = static_cast<std::size_t>(form.num_struct);

  ConsistentSnapshot snap = root_snapshot(form);
  snap.incumbent_objective = -1e6;  // far better than the true optimum
  snap.incumbent_x = {1.0, 0.0};    // two entries for an eight-column model
  expect_rejected(solver, snap);

  snap.incumbent_x.assign(n, 1.0);  // every item packed: over capacity
  expect_rejected(solver, snap);

  snap.incumbent_x.assign(n, 0.0);
  snap.incumbent_x[0] = 0.5;  // inside every row, but fractional
  expect_rejected(solver, snap);

  snap.incumbent_x.assign(n, 0.0);
  snap.incumbent_x[0] = 2.0;  // integral, beyond the binary bound
  expect_rejected(solver, snap);

  snap.incumbent_x.assign(n, 0.0);  // the empty knapsack fits
  EXPECT_NO_THROW(check_resumable(m, form, snap, opts.int_tol));
}

TEST(Snapshot, ResumeRejectsInconsistentBasis) {
  // The warm start trusts a basis's statuses, so a basis that breaks
  // lp::basis_fault's rules must be refused before any node is solved.
  Rng rng(7);
  RandomMipConfig cfg;
  cfg.rows = 6;
  cfg.cols = 10;
  cfg.bound = 4.0;
  const MipModel m = problems::random_mip(cfg, rng);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  MipOptions opts;
  opts.enable_cuts = false;
  BnbSolver solver(m, opts);

  ConsistentSnapshot good = root_snapshot(form);
  good.frontier[0].basis = lp::SimplexSolver(form).solve_default().basis;
  ASSERT_EQ(lp::basis_fault(good.frontier[0].basis, form.num_rows, form.num_vars), nullptr);
  EXPECT_NO_THROW(check_resumable(m, form, good, opts.int_tol));
  const int basic = good.frontier[0].basis.basic[0];
  int nonbasic = 0;
  while (good.frontier[0].basis.status[static_cast<std::size_t>(nonbasic)] == lp::VarStatus::Basic) {
    ++nonbasic;
  }

  ConsistentSnapshot snap = good;
  snap.frontier[0].basis.status.pop_back();  // wrong status size
  expect_rejected(solver, snap);

  snap = good;
  snap.frontier[0].basis.basic.push_back(nonbasic);  // wrong basic size
  expect_rejected(solver, snap);

  snap = good;
  snap.frontier[0].basis.basic[0] = form.num_vars;  // out of range
  expect_rejected(solver, snap);

  snap = good;
  snap.frontier[0].basis.status[static_cast<std::size_t>(basic)] = lp::VarStatus::AtLower;
  expect_rejected(solver, snap);  // basic variable not flagged Basic

  snap = good;
  snap.frontier[0].basis.status[static_cast<std::size_t>(nonbasic)] = lp::VarStatus::Basic;
  expect_rejected(solver, snap);  // flagged Basic, missing from `basic`

  snap = good;
  snap.frontier[0].basis.basic[1] = basic;  // basic in two rows
  snap.frontier[0].basis.status[static_cast<std::size_t>(good.frontier[0].basis.basic[1])] =
      lp::VarStatus::AtLower;
  expect_rejected(solver, snap);

  const MipResult r = solver.solve_from(good);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, solve(m, opts).objective, 1e-9);
}

TEST(Snapshot, FinalSnapshotIsEmptyFrontierWithIncumbent) {
  MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_int_col(1.0, 0, 10), y = m.add_int_col(1.0, 0, 10);
  m.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 5.0);
  m.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 7.0);
  BnbSolver solver(m, {});
  MipResult r = solver.solve();
  ASSERT_EQ(r.status, MipStatus::Optimal);
  ConsistentSnapshot snap = solver.capture_snapshot();
  EXPECT_TRUE(snap.frontier.empty());
  EXPECT_TRUE(snap.has_incumbent());
}

TEST(Cuts, GomoryCutsAreValidAndViolated) {
  // Generate cuts at a fractional root; they must cut off the LP point but
  // keep every integer feasible point.
  Rng rng(71);
  RandomMipConfig cfg;
  cfg.rows = 6;
  cfg.cols = 6;
  cfg.density = 0.6;
  cfg.integer_fraction = 1.0;
  cfg.bound = 3.0;
  int checked = 0;
  for (int trial = 0; trial < 8; ++trial) {
    MipModel m = problems::random_mip(cfg, rng);
    const lp::StandardForm form = lp::build_standard_form(m.lp());
    lp::SimplexSolver solver(form);
    lp::LpResult root = solver.solve_default();
    ASSERT_EQ(root.status, lp::LpStatus::Optimal);
    if (m.is_integral(root.x)) continue;
    CutOptions copts;
    copts.min_violation = 1e-6;
    auto cuts = gomory_cuts(m, form, root, copts);
    if (cuts.empty()) continue;
    ++checked;
    // Violation at the LP point.
    for (const Cut& cut : cuts) {
      EXPECT_GT(cut.violation(root.x), 1e-6 / 2);
    }
    // Validity: enumerate all integer points and check none is cut off.
    MipResult exact = solve_by_enumeration(m);
    if (exact.has_solution) {
      for (const Cut& cut : cuts) {
        EXPECT_LT(cut.violation(exact.x), 1e-6)
            << "optimal integer point violates a 'valid' cut";
      }
    }
  }
  EXPECT_GT(checked, 0) << "no trial produced cuts; generator too easy";
}

TEST(Bnb, ForcedLpMethodsAgreeWithEnumeration) {
  // Every node relaxation forced onto one LP backend; all three must land
  // on the enumeration optimum. IPM/PDHG objectives are tol-approximate, so
  // the engine pads prune comparisons (docs/METHODS.md) — agreement here is
  // the end-to-end check that the padding keeps the tree exact.
  Rng rng(4242);
  RandomMipConfig cfg;
  cfg.rows = 6;
  cfg.cols = 7;
  cfg.density = 0.5;
  cfg.integer_fraction = 0.7;
  cfg.bound = 3.0;
  MipModel m = problems::random_mip(cfg, rng);
  MipResult exact = solve_by_enumeration(m);
  ASSERT_EQ(exact.status, MipStatus::Optimal);
  for (lp::LpMethod method :
       {lp::LpMethod::Simplex, lp::LpMethod::InteriorPoint, lp::LpMethod::Pdhg}) {
    MipOptions opts;
    opts.lp_method = method;
    opts.pdhg.tol = 1e-8;
    MipResult r = solve(m, opts);
    ASSERT_EQ(r.status, MipStatus::Optimal) << lp::lp_method_name(method);
    EXPECT_NEAR(r.objective, exact.objective, 1e-4) << lp::lp_method_name(method);
  }
}

TEST(Cuts, CoverCutsOnKnapsack) {
  Rng rng(81);
  MipModel m = problems::knapsack(12, rng, 0.4);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  lp::SimplexSolver solver(form);
  lp::LpResult root = solver.solve_default();
  ASSERT_EQ(root.status, lp::LpStatus::Optimal);
  if (!m.is_integral(root.x)) {
    auto cuts = cover_cuts(m, root.x);
    for (const Cut& cut : cuts) {
      EXPECT_GT(cut.violation(root.x), 0.0);
      // Validity on the true optimum.
      MipResult exact = solve_by_enumeration(m);
      EXPECT_LT(cut.violation(exact.x), 1e-9);
    }
  }
}

TEST(Cuts, PoolDeduplicates) {
  CutPool pool;
  Cut c1{{{0, 1.0}, {1, 2.0}}, 1.0, lp::kInf};
  EXPECT_TRUE(pool.add(c1));
  EXPECT_FALSE(pool.add(c1));
  Cut c2 = c1;
  c2.lb = 2.0;
  EXPECT_TRUE(pool.add(c2));
  EXPECT_EQ(pool.size(), 2u);
}

TEST(Cuts, RootCutsTightenBound) {
  // With pure-integer models the root bound after cuts must be no worse
  // (and usually strictly better) than the plain LP bound.
  Rng rng(91);
  RandomMipConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.integer_fraction = 1.0;
  cfg.bound = 3.0;
  int improved = 0;
  for (int trial = 0; trial < 6; ++trial) {
    MipModel m = problems::random_mip(cfg, rng);
    MipOptions no_cuts;
    no_cuts.enable_cuts = false;
    no_cuts.enable_heuristics = false;
    MipOptions with_cuts;
    with_cuts.enable_heuristics = false;
    BnbSolver s1(m, no_cuts), s2(m, with_cuts);
    MipResult r1 = s1.solve();
    MipResult r2 = s2.solve();
    ASSERT_EQ(r1.status, MipStatus::Optimal);
    ASSERT_EQ(r2.status, MipStatus::Optimal);
    EXPECT_NEAR(r1.objective, r2.objective, 1e-6);
    // min-form root bounds: cut root >= plain root (tighter).
    if (r2.stats.cuts_added > 0 && r2.stats.root_bound > r1.stats.root_bound + 1e-9) {
      ++improved;
    }
    EXPECT_GE(r2.stats.root_bound, r1.stats.root_bound - 1e-6);
  }
  EXPECT_GT(improved, 0) << "cuts never tightened the root bound";
}

TEST(Heuristics, RoundingFindsObviousSolution) {
  Rng rng(101);
  MipModel m = problems::knapsack(10, rng, 0.9);  // loose capacity: rounding works often
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  lp::SimplexSolver solver(form);
  lp::LpResult root = solver.solve_default();
  ASSERT_EQ(root.status, lp::LpStatus::Optimal);
  HeuristicResult h = rounding_heuristic(m, m.lp().matrix(), form, root.x);
  if (h.found) {
    EXPECT_TRUE(m.is_feasible(h.x));
    EXPECT_TRUE(m.is_integral(h.x));
  }
}

TEST(Heuristics, DivingProducesFeasiblePoint) {
  Rng rng(111);
  RandomMipConfig cfg;
  cfg.rows = 8;
  cfg.cols = 14;
  MipModel m = problems::random_mip(cfg, rng);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  lp::SimplexSolver solver(form);
  lp::LpResult root = solver.solve_default();
  ASSERT_EQ(root.status, lp::LpStatus::Optimal);
  HeuristicResult h = diving_heuristic(m, form, solver, root, form.lb, form.ub);
  ASSERT_TRUE(h.found);
  EXPECT_TRUE(m.is_feasible(h.x));
  EXPECT_TRUE(m.is_integral(h.x));
}

TEST(Heuristics, DiveStaysInsideTheNodeBox) {
  // A dive from a child node must fix variables inside the child's box: a
  // resumed subproblem's dive that wandered back into the global box would
  // search (and report) points its node excludes. On this seed both
  // children's dives from the global box land outside the child's box, so
  // the test tells the two apart.
  Rng rng(23);
  RandomMipConfig cfg;
  cfg.rows = 8;
  cfg.cols = 14;
  MipModel m = problems::random_mip(cfg, rng);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  lp::SimplexSolver solver(form);
  const lp::LpResult root = solver.solve_default();
  ASSERT_EQ(root.status, lp::LpStatus::Optimal);
  const int var = select_branch_var(root.x, m.integer_flags(), 1e-6);
  ASSERT_GE(var, 0);
  const auto k = static_cast<std::size_t>(var);

  auto inside = [&](const linalg::Vector& x, const linalg::Vector& lb, const linalg::Vector& ub) {
    for (int j = 0; j < m.num_cols(); ++j) {
      const auto i = static_cast<std::size_t>(j);
      if (x[i] < lb[i] - 1e-9 || x[i] > ub[i] + 1e-9) return false;
    }
    return true;
  };
  for (const bool up : {false, true}) {
    linalg::Vector lb = form.lb, ub = form.ub;
    if (up) {
      lb[k] = std::ceil(root.x[k]);
    } else {
      ub[k] = std::floor(root.x[k]);
    }
    const lp::BasisInverse inverse{&root.binv, root.etas_since_refactor};
    const lp::LpResult child = solver.resolve_dual(lb, ub, root.basis, &inverse);
    ASSERT_EQ(child.status, lp::LpStatus::Optimal) << "up " << up;
    ASSERT_FALSE(m.is_integral(child.x)) << "up " << up;

    const HeuristicResult global = diving_heuristic(m, form, solver, child, form.lb, form.ub);
    ASSERT_TRUE(global.found) << "up " << up;
    ASSERT_FALSE(inside(global.x, lb, ub)) << "fixture: the global-box dive stays in the box";

    const HeuristicResult h = diving_heuristic(m, form, solver, child, lb, ub);
    ASSERT_TRUE(h.found) << "up " << up;
    EXPECT_TRUE(inside(h.x, lb, ub)) << "up " << up;
    EXPECT_TRUE(m.is_feasible(h.x)) << "up " << up;
    EXPECT_TRUE(m.is_integral(h.x)) << "up " << up;
    EXPECT_GE(h.objective, child.objective - 1e-9) << "up " << up;
  }
}

TEST(Heuristics, BoundedDiveKeepsEveryImprovingIncumbent) {
  // The cutoff stop may only drop dives that could not have beaten the
  // cutoff: whenever the unbounded dive returns an objective below
  // cutoff - 1e-12 (what try_incumbent accepts), the bounded dive returns
  // the same point, bit for bit, and it never solves more LPs. Dives start
  // at the root and at both of its children, on the bnb_tree (16x28) and
  // supervised (17x30) perfbench shapes.
  const obs::Counter& dive_lps = obs::counter("gpumip.mip.dive.lps");
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  int improving = 0;
  std::uint64_t saved_lps = 0;
  for (const auto& [rows, cols] : {std::pair{16, 28}, std::pair{17, 30}}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(900 + seed);
      RandomMipConfig cfg;
      cfg.rows = rows;
      cfg.cols = cols;
      cfg.bound = 4.0;
      const MipModel m = problems::random_mip(cfg, rng);
      const lp::StandardForm form = lp::build_standard_form(m.lp());
      lp::SimplexSolver solver(form);
      const lp::LpResult root = solver.solve_default();
      ASSERT_EQ(root.status, lp::LpStatus::Optimal);
      const int var = select_branch_var(root.x, m.integer_flags(), 1e-6);
      if (var < 0) continue;
      const auto k = static_cast<std::size_t>(var);

      struct Start {
        lp::LpResult lp;
        linalg::Vector lb, ub;
      };
      std::vector<Start> starts{{root, form.lb, form.ub}};
      for (const bool up : {false, true}) {
        Start child{{}, form.lb, form.ub};
        if (up) {
          child.lb[k] = std::ceil(root.x[k]);
        } else {
          child.ub[k] = std::floor(root.x[k]);
        }
        const lp::BasisInverse inverse{&root.binv, root.etas_since_refactor};
        child.lp = solver.resolve_dual(child.lb, child.ub, root.basis, &inverse);
        if (child.lp.status == lp::LpStatus::Optimal && !m.is_integral(child.lp.x)) {
          starts.push_back(std::move(child));
        }
      }

      const int max_dives = 2 * cols + 10;
      for (const Start& start : starts) {
        std::uint64_t before = dive_lps.value();
        const HeuristicResult open =
            diving_heuristic(m, form, solver, start.lp, start.lb, start.ub, max_dives);
        const std::uint64_t open_lps = dive_lps.value() - before;
        const double lo = start.lp.objective;
        const double hi = open.found ? open.objective : lo + 1.0;
        std::vector<double> cutoffs{lo, hi + 1e-9, hi + 1e-6 * (1.0 + std::fabs(hi)),
                                    hi - 1e-9, hi - 1e-6 * (1.0 + std::fabs(hi))};
        for (const double t : {0.1, 0.25, 0.5, 0.75, 0.9}) cutoffs.push_back(lo + t * (hi - lo));
        for (const double cutoff : cutoffs) {
          before = dive_lps.value();
          const HeuristicResult h = diving_heuristic(m, form, solver, start.lp, start.lb,
                                                     start.ub, max_dives, 1e-6, cutoff);
          const std::uint64_t lps = dive_lps.value() - before;
          EXPECT_LE(lps, open_lps) << "seed " << seed << " cutoff " << cutoff;
          saved_lps += open_lps - std::min(lps, open_lps);
          if (!open.found || !(open.objective < cutoff - 1e-12)) continue;
          ++improving;
          ASSERT_TRUE(h.found) << "seed " << seed << " cutoff " << cutoff;
          EXPECT_EQ(bits(h.objective), bits(open.objective)) << "seed " << seed;
          ASSERT_EQ(h.x.size(), open.x.size());
          for (std::size_t j = 0; j < h.x.size(); ++j) {
            EXPECT_EQ(bits(h.x[j]), bits(open.x[j])) << "seed " << seed << " column " << j;
          }
        }
      }
    }
  }
  EXPECT_GT(improving, 0) << "fixture: no cutoff lies above a dive's objective";
  if (obs::kObsEnabled) {
    EXPECT_GT(saved_lps, 0u) << "fixture: the cutoff never stopped a dive";
  }
}

TEST(MipStats, RootBoundIsSetOnlyAtTheTrueRoot) {
  // solve() records the root LP's objective; solve_from() has no root, so
  // its frontier nodes (parentless in the resumed pool) leave it unset.
  Rng rng(61);
  RandomMipConfig cfg;
  cfg.rows = 10;
  cfg.cols = 18;
  cfg.bound = 4.0;
  MipModel m = problems::random_mip(cfg, rng);

  std::vector<ConsistentSnapshot> snapshots;
  MipOptions opts;
  opts.enable_cuts = false;
  opts.snapshot_interval = 5;
  opts.on_snapshot = [&](const ConsistentSnapshot& s) { snapshots.push_back(s); };
  BnbSolver fresh(m, opts);
  const MipResult full = fresh.solve();
  ASSERT_EQ(full.status, MipStatus::Optimal);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  const lp::LpResult root = lp::SimplexSolver(form).solve_default();
  ASSERT_EQ(root.status, lp::LpStatus::Optimal);
  ASSERT_NE(root.objective, 0.0);
  EXPECT_NEAR(full.stats.root_bound, root.objective, 1e-9);
  EXPECT_EQ(full.stats.root_bound, fresh.pool().node(0).lp_objective);

  ASSERT_GE(snapshots.size(), 2u);
  const ConsistentSnapshot& snap = snapshots[snapshots.size() / 2];
  ASSERT_FALSE(snap.frontier.empty());
  MipOptions resume_opts;
  resume_opts.enable_cuts = false;
  BnbSolver resumed(m, resume_opts);
  const MipResult r = resumed.solve_from(snap);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, full.objective, 1e-6);
  EXPECT_GT(r.stats.nodes_evaluated, 0);
  EXPECT_EQ(r.stats.root_bound, MipStats{}.root_bound);
}

TEST(Enumeration, RejectsHugeDomains) {
  MipModel m;
  m.add_int_col(1.0, 0.0, 1e6);
  EXPECT_THROW(solve_by_enumeration(m), Error);
}

}  // namespace
}  // namespace gpumip::mip
