// gpumip — public API.
//
// One include gives you the whole system:
//
//   #include "core/gpumip.hpp"
//
//   gpumip::mip::MipModel model;
//   ... build columns/rows ...
//   gpumip::Solver solver;                       // default: strategy S2
//   gpumip::SolveReport report = solver.solve(model);
//
// The Solver facade wraps the branch-and-bound engine, LP backends, root
// cuts/heuristics, the execution strategies (paper section 3), and the
// simulated-device accounting. Lower layers remain fully usable directly:
//   lp::SimplexSolver / lp::InteriorPointSolver   — LP engines
//   mip::BnbSolver                                — sequential B&B/B&C
//   parallel::solve_supervised                    — UG-style scale-out
//   parallel::replay_strategy                     — S1..S4 cost replay of one search
//   ivm::solve_flowshop_gpu                       — entirely-GPU permutation B&B
#pragma once

#include <optional>
#include <string>

#include "lp/interior_point.hpp"
#include "lp/path_chooser.hpp"
#include "lp/presolve.hpp"
#include "lp/simplex.hpp"
#include "mip/solver.hpp"
#include "parallel/strategies.hpp"
#include "parallel/supervisor.hpp"
#include "problems/generators.hpp"
#include "problems/mps.hpp"

namespace gpumip {

struct SolverOptions {
  parallel::Strategy strategy = parallel::Strategy::S2_CpuOrchestrated;
  bool presolve = true;
  mip::MipOptions mip;                  ///< engine knobs (node selection, cuts, ...)
  gpu::CostModelConfig device;          ///< simulated accelerator
  int devices = 1;                      ///< >1 enables S4 sharding
  lp::CpuCostModel cpu;
  /// Scale out over a supervisor-worker fleet when workers > 0.
  int workers = 0;
  parallel::SupervisorOptions supervisor;
};

struct SolveReport {
  mip::MipStatus status = mip::MipStatus::Infeasible;
  bool has_solution = false;
  double objective = 0.0;     ///< in the model's own sense
  linalg::Vector x;           ///< structural variable values
  double bound = 0.0;
  double gap = 0.0;

  mip::MipStats stats;
  mip::TreeAnatomy anatomy;   ///< Figure-1 style tree census

  // Simulated-platform accounting (from the strategy replay).
  double sim_seconds = 0.0;
  double device_seconds = 0.0;
  double host_seconds = 0.0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t device_peak_bytes = 0;
  bool strategy_completed = true;
  std::string strategy_failure;

  // Scale-out accounting (when workers > 0).
  double parallel_makespan = 0.0;
  std::vector<long> worker_nodes;

  int presolve_rows_removed = 0;
  int presolve_cols_removed = 0;
};

/// The facade. Stateless between solves; safe to reuse.
class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  /// Solves a MIP (or pure LP: no integer columns) end to end.
  SolveReport solve(const mip::MipModel& model) const;

  /// Convenience: load an MPS file and solve it.
  SolveReport solve_mps_file(const std::string& path) const;

  const SolverOptions& options() const noexcept { return options_; }

 private:
  SolverOptions options_;
};

/// Library version string.
const char* version() noexcept;

}  // namespace gpumip
