// End-to-end integration tests crossing module boundaries: facade ->
// strategies -> engine -> LP -> device model; MPS files -> supervisor ->
// checkpoint files -> resume; presolve/scaling pipelines.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/gpumip.hpp"

namespace gpumip {
namespace {

using problems::RandomMipConfig;

class FamilySweep : public ::testing::TestWithParam<int> {};

mip::MipModel family_instance(int family, Rng& rng) {
  switch (family) {
    case 0: return problems::knapsack(14, rng);
    case 1: return problems::set_cover(10, 8, rng);
    case 2: return problems::generalized_assignment(3, 5, rng);
    case 3: return problems::unit_commitment(3, 3, rng);
    default: {
      RandomMipConfig cfg;
      cfg.rows = 8;
      cfg.cols = 14;
      cfg.bound = 3.0;
      return problems::random_mip(cfg, rng);
    }
  }
}

TEST_P(FamilySweep, AllStrategiesAgreeOnEveryFamily) {
  Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  mip::MipModel model = family_instance(GetParam(), rng);
  double reference = 0.0;
  bool first = true;
  for (auto strategy : {parallel::Strategy::S1_GpuOnly, parallel::Strategy::S2_CpuOrchestrated,
                        parallel::Strategy::S3_Hybrid, parallel::Strategy::S4_BigMip}) {
    SolverOptions opts;
    opts.strategy = strategy;
    opts.devices = 2;
    Solver solver(opts);
    SolveReport r = solver.solve(model);
    ASSERT_EQ(r.status, mip::MipStatus::Optimal)
        << parallel::strategy_name(strategy) << " family " << GetParam();
    ASSERT_TRUE(r.has_solution);
    EXPECT_TRUE(model.is_feasible(r.x, 1e-5));
    EXPECT_TRUE(model.is_integral(r.x, 1e-5));
    if (first) {
      reference = r.objective;
      first = false;
    } else {
      EXPECT_NEAR(r.objective, reference, 1e-6) << parallel::strategy_name(strategy);
    }
  }
}

TEST_P(FamilySweep, SupervisedMatchesFacadeOnEveryFamily) {
  Rng rng(910 + static_cast<std::uint64_t>(GetParam()));
  mip::MipModel model = family_instance(GetParam(), rng);
  SolverOptions seq_opts;
  seq_opts.mip.enable_cuts = false;
  Solver seq(seq_opts);
  SolveReport s = seq.solve(model);
  SolverOptions par_opts = seq_opts;
  par_opts.workers = 3;
  par_opts.supervisor.worker_node_budget = 20;
  Solver par(par_opts);
  SolveReport p = par.solve(model);
  ASSERT_EQ(s.status, mip::MipStatus::Optimal);
  ASSERT_EQ(p.status, mip::MipStatus::Optimal);
  EXPECT_NEAR(p.objective, s.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Families, FamilySweep, ::testing::Range(0, 5));

TEST(Pipeline, MpsToSupervisorToCheckpointFile) {
  // Full loop: generate -> write MPS -> read MPS -> supervised solve with
  // file checkpoints -> resume from the file.
  Rng rng(930);
  RandomMipConfig cfg;
  cfg.rows = 10;
  cfg.cols = 18;
  cfg.bound = 3.0;
  mip::MipModel original = problems::random_mip(cfg, rng);
  const std::string mps_path = "/tmp/gpumip_integration.mps";
  {
    std::ofstream out(mps_path);
    problems::write_mps(original, out);
  }
  mip::MipModel parsed = problems::read_mps_file(mps_path);

  const std::string snap_path = "/tmp/gpumip_integration.snap";
  long checkpoints = 0;
  parallel::SupervisorOptions opts;
  opts.workers = 2;
  opts.worker_node_budget = 8;
  opts.ramp_up_nodes = 10;
  opts.mip.enable_cuts = false;
  opts.checkpoint_interval = 2;
  opts.on_checkpoint = [&](const mip::ConsistentSnapshot& snap) {
    std::ofstream out(snap_path);
    snap.serialize(out);
    ++checkpoints;
  };
  parallel::SupervisorResult run = parallel::solve_supervised(parsed, opts);
  ASSERT_EQ(run.result.status, mip::MipStatus::Optimal);

  if (checkpoints > 0) {
    std::ifstream in(snap_path);
    mip::ConsistentSnapshot snap = mip::ConsistentSnapshot::deserialize(in);
    parallel::SupervisorOptions resume_opts = opts;
    resume_opts.checkpoint_interval = 0;
    resume_opts.on_checkpoint = nullptr;
    parallel::SupervisorResult resumed = parallel::resume_supervised(parsed, snap, resume_opts);
    if (resumed.result.has_solution) {
      EXPECT_NEAR(resumed.result.objective, run.result.objective, 1e-6);
    }
  }
  std::remove(mps_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(Pipeline, IpmAsRootCrossCheck) {
  // The IPM and simplex must agree on every family's root relaxation.
  Rng rng(940);
  for (int family = 0; family < 5; ++family) {
    mip::MipModel model = family_instance(family, rng);
    const lp::StandardForm form = lp::build_standard_form(model.lp());
    lp::LpResult spx = lp::SimplexSolver(form).solve_default();
    lp::LpResult ipm = lp::InteriorPointSolver(form).solve_default();
    ASSERT_EQ(spx.status, lp::LpStatus::Optimal) << "family " << family;
    ASSERT_EQ(ipm.status, lp::LpStatus::Optimal) << "family " << family;
    EXPECT_NEAR(spx.objective, ipm.objective, 1e-4 * (1 + std::abs(spx.objective)))
        << "family " << family;
  }
}

TEST(Pipeline, DeterministicAcrossRuns) {
  // Identical seeds -> bit-identical trajectories (node counts, objective,
  // simulated times).
  Rng rng1(950), rng2(950);
  RandomMipConfig cfg;
  cfg.rows = 9;
  cfg.cols = 15;
  mip::MipModel m1 = problems::random_mip(cfg, rng1);
  mip::MipModel m2 = problems::random_mip(cfg, rng2);
  Solver solver;
  SolveReport r1 = solver.solve(m1);
  SolveReport r2 = solver.solve(m2);
  EXPECT_EQ(r1.stats.nodes_evaluated, r2.stats.nodes_evaluated);
  EXPECT_DOUBLE_EQ(r1.objective, r2.objective);
  EXPECT_DOUBLE_EQ(r1.sim_seconds, r2.sim_seconds);
  EXPECT_EQ(r1.bytes_transferred, r2.bytes_transferred);
}

}  // namespace
}  // namespace gpumip
