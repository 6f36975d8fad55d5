// Quickstart: build a tiny MIP, solve it with the default strategy
// (S2, CPU-orchestration of GPU execution), and inspect the report —
// including the simulated-GPU accounting that distinguishes this library.
//
//   ./quickstart
#include <cstdio>

#include "core/gpumip.hpp"
#include "support/strings.hpp"

int main() {
  using namespace gpumip;

  // maximize  x + y
  // s.t.      2x +  y <= 5
  //            x + 3y <= 7
  //            x, y integer in [0, 10]
  mip::MipModel model;
  model.lp().set_sense(lp::Sense::Maximize);
  const int x = model.add_int_col(1.0, 0, 10, "x");
  const int y = model.add_int_col(1.0, 0, 10, "y");
  model.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 5.0, "c1");
  model.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 7.0, "c2");

  Solver solver;  // default options: strategy S2
  SolveReport report = solver.solve(model);

  std::printf("%s\n", version());
  std::printf("status      : %s\n", mip::mip_status_name(report.status));
  std::printf("objective   : %.6f\n", report.objective);
  std::printf("x = %.0f, y = %.0f\n", report.x[0], report.x[1]);
  std::printf("tree        : %ld nodes (%ld branched, %ld feasible, %ld infeasible, %ld pruned)\n",
              report.anatomy.total_nodes, report.anatomy.branched,
              report.anatomy.feasible_leaves, report.anatomy.infeasible_leaves,
              report.anatomy.pruned_leaves);
  std::printf("simulated   : %s end-to-end (%s on device), %s over PCIe, peak %s on device\n",
              human_seconds(report.sim_seconds).c_str(),
              human_seconds(report.device_seconds).c_str(),
              human_bytes(report.bytes_transferred).c_str(),
              human_bytes(report.device_peak_bytes).c_str());
  return report.status == mip::MipStatus::Optimal ? 0 : 1;
}
