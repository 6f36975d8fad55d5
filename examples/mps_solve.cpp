// Command-line MPS solver: loads an MPS file (or writes a demo instance if
// none is given) and solves it, printing the Figure-1 style tree census
// and the simulated platform accounting.
//
//   ./mps_solve [file.mps] [strategy: s1|s2|s3|s4]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/gpumip.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace gpumip;

  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    // No file given: write a demo knapsack instance and solve that.
    path = "/tmp/gpumip_demo.mps";
    Rng rng(3);
    mip::MipModel demo = problems::knapsack(12, rng);
    std::ofstream out(path);
    problems::write_mps(demo, out, "DEMO_KNAPSACK");
    std::printf("no input given; wrote demo instance to %s\n", path.c_str());
  }

  SolverOptions opts;
  if (argc > 2) {
    const std::string s = argv[2];
    if (s == "s1") opts.strategy = parallel::Strategy::S1_GpuOnly;
    if (s == "s2") opts.strategy = parallel::Strategy::S2_CpuOrchestrated;
    if (s == "s3") opts.strategy = parallel::Strategy::S3_Hybrid;
    if (s == "s4") {
      opts.strategy = parallel::Strategy::S4_BigMip;
      opts.devices = 4;
    }
  }

  Solver solver(opts);
  SolveReport report;
  try {
    report = solver.solve_mps_file(path);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("strategy    : %s\n", parallel::strategy_name(solver.options().strategy));
  std::printf("status      : %s\n", mip::mip_status_name(report.status));
  if (report.has_solution) std::printf("objective   : %.6f (gap %.2e)\n", report.objective, report.gap);
  std::printf("presolve    : -%d rows, -%d cols\n", report.presolve_rows_removed,
              report.presolve_cols_removed);
  std::printf("tree census : %ld total = %ld branched + %ld feasible + %ld infeasible + %ld pruned"
              " (peak frontier %ld, depth %d)\n",
              report.anatomy.total_nodes, report.anatomy.branched,
              report.anatomy.feasible_leaves, report.anatomy.infeasible_leaves,
              report.anatomy.pruned_leaves, report.anatomy.active_peak,
              report.anatomy.max_depth);
  std::printf("simulated   : %s total | device %s | host %s | %s transferred | peak mem %s\n",
              human_seconds(report.sim_seconds).c_str(),
              human_seconds(report.device_seconds).c_str(),
              human_seconds(report.host_seconds).c_str(),
              human_bytes(report.bytes_transferred).c_str(),
              human_bytes(report.device_peak_bytes).c_str());
  if (!report.strategy_completed) {
    std::printf("NOTE: strategy infeasible on configured hardware: %s\n",
                report.strategy_failure.c_str());
  }
  return report.status == mip::MipStatus::Optimal ? 0 : 1;
}
