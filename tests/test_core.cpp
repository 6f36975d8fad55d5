#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/gpumip.hpp"

namespace gpumip {
namespace {

using problems::RandomMipConfig;

mip::MipModel small_mip() {
  mip::MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_int_col(1.0, 0, 10), y = m.add_int_col(1.0, 0, 10);
  m.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 5.0);
  m.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 7.0);
  return m;
}

TEST(Facade, SolvesSmallMip) {
  Solver solver;
  SolveReport report = solver.solve(small_mip());
  EXPECT_EQ(report.status, mip::MipStatus::Optimal);
  EXPECT_TRUE(report.has_solution);
  EXPECT_NEAR(report.objective, 3.0, 1e-6);
  EXPECT_TRUE(report.strategy_completed);
  EXPECT_GT(report.sim_seconds, 0.0);
  EXPECT_GT(report.bytes_transferred, 0u);
}

TEST(Facade, PureLpWorksToo) {
  mip::MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_col(3.0), y = m.add_col(5.0);
  m.lp().add_row_le({{x, 1.0}}, 4.0);
  m.lp().add_row_le({{y, 2.0}}, 12.0);
  m.lp().add_row_le({{x, 3.0}, {y, 2.0}}, 18.0);
  Solver solver;
  SolveReport report = solver.solve(m);
  EXPECT_EQ(report.status, mip::MipStatus::Optimal);
  EXPECT_NEAR(report.objective, 36.0, 1e-6);
}

TEST(Facade, PresolveMapsSolutionBack) {
  mip::MipModel m = small_mip();
  // Add a fixed column that contributes 7 to the (maximization) objective.
  const int fixed = m.add_col(7.0, 1.0, 1.0);
  (void)fixed;
  // The shift applies to the incumbent and the bound alike, on the
  // sequential and the supervised path.
  for (int workers : {0, 2}) {
    SolverOptions opts;
    opts.presolve = true;
    opts.workers = workers;
    Solver solver(opts);
    SolveReport report = solver.solve(m);
    EXPECT_EQ(report.status, mip::MipStatus::Optimal) << "workers=" << workers;
    EXPECT_GT(report.presolve_cols_removed, 0);
    ASSERT_EQ(static_cast<int>(report.x.size()), m.num_cols());
    EXPECT_NEAR(report.x[2], 1.0, 1e-9);
    EXPECT_NEAR(report.objective, 3.0 + 7.0, 1e-6) << "workers=" << workers;
    EXPECT_NEAR(report.bound, 3.0 + 7.0, 1e-6) << "workers=" << workers;
    EXPECT_NEAR(report.gap, 0.0, 1e-9) << "workers=" << workers;
  }
}

TEST(Facade, PresolveDetectsInfeasibility) {
  mip::MipModel m;
  const int x = m.add_int_col(1.0, 0, 4);
  m.lp().add_row_ge({{x, 1.0}}, 5.0);
  Solver solver;
  EXPECT_EQ(solver.solve(m).status, mip::MipStatus::Infeasible);
}

TEST(Facade, StrategySelectionWorks) {
  for (auto strategy : {parallel::Strategy::S1_GpuOnly, parallel::Strategy::S3_Hybrid,
                        parallel::Strategy::S4_BigMip}) {
    SolverOptions opts;
    opts.strategy = strategy;
    opts.devices = 2;
    Solver solver(opts);
    SolveReport report = solver.solve(small_mip());
    EXPECT_EQ(report.status, mip::MipStatus::Optimal) << parallel::strategy_name(strategy);
    EXPECT_NEAR(report.objective, 3.0, 1e-6);
  }
}

TEST(Facade, SupervisedModeMatchesSequential) {
  Rng rng(500);
  RandomMipConfig cfg;
  cfg.rows = 10;
  cfg.cols = 16;
  cfg.bound = 4.0;
  mip::MipModel m = problems::random_mip(cfg, rng);
  Solver sequential;
  SolveReport seq = sequential.solve(m);
  SolverOptions par_opts;
  par_opts.workers = 3;
  par_opts.mip.enable_cuts = false;
  par_opts.supervisor.worker_node_budget = 25;
  Solver par(par_opts);
  SolveReport pr = par.solve(m);
  ASSERT_EQ(seq.status, mip::MipStatus::Optimal);
  ASSERT_EQ(pr.status, mip::MipStatus::Optimal);
  EXPECT_NEAR(pr.objective, seq.objective, 1e-6);
  EXPECT_GT(pr.parallel_makespan, 0.0);
}

TEST(Facade, MpsFileEndToEnd) {
  const std::string path = "/tmp/gpumip_facade_test.mps";
  {
    std::ofstream out(path);
    problems::write_mps(small_mip(), out);
  }
  Solver solver;
  SolveReport report = solver.solve_mps_file(path);
  EXPECT_EQ(report.status, mip::MipStatus::Optimal);
  EXPECT_NEAR(report.objective, 3.0, 1e-6);
  std::remove(path.c_str());
}

TEST(Facade, AnatomyIsReported) {
  SolverOptions opts;
  opts.mip.enable_cuts = false;
  opts.mip.enable_heuristics = false;
  opts.presolve = false;
  Solver solver(opts);
  SolveReport report = solver.solve(small_mip());
  EXPECT_GT(report.anatomy.total_nodes, 0);
  EXPECT_EQ(report.anatomy.total_nodes, report.anatomy.branched + report.anatomy.leaves());
}

TEST(Facade, VersionString) {
  EXPECT_NE(std::string(version()).find("gpumip"), std::string::npos);
}

}  // namespace
}  // namespace gpumip
