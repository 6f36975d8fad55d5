#include "core/gpumip.hpp"

#include <cmath>

namespace gpumip {

const char* version() noexcept { return "gpumip 1.0.0"; }

Solver::Solver(SolverOptions options) : options_(std::move(options)) {}

SolveReport Solver::solve(const mip::MipModel& model) const {
  model.validate();
  SolveReport report;

  // ---- presolve (host-side setup stage) ----
  const mip::MipModel* working = &model;
  mip::MipModel reduced_model;
  std::optional<lp::PresolveResult> presolved;
  if (options_.presolve) {
    presolved = lp::presolve(model.lp(), model.integer_flags());
    if (presolved->infeasible) {
      report.status = mip::MipStatus::Infeasible;
      return report;
    }
    std::vector<bool> reduced_flags(static_cast<std::size_t>(presolved->reduced.num_cols()),
                                    false);
    for (int j = 0; j < model.num_cols(); ++j) {
      const int mapped = presolved->col_map[static_cast<std::size_t>(j)];
      if (mapped >= 0) reduced_flags[static_cast<std::size_t>(mapped)] = model.is_integer(j);
    }
    reduced_model.reset_lp(presolved->reduced, std::move(reduced_flags));
    report.presolve_rows_removed = presolved->rows_removed;
    report.presolve_cols_removed = presolved->cols_removed;
    working = &reduced_model;
  }

  // ---- solve ----
  mip::MipResult result;
  if (options_.workers > 0) {
    parallel::SupervisorOptions sup = options_.supervisor;
    sup.workers = options_.workers;
    sup.mip = options_.mip;
    parallel::SupervisorResult sr = parallel::solve_supervised(*working, sup);
    report.parallel_makespan = sr.makespan;
    report.worker_nodes = sr.worker_nodes;
    result = std::move(sr.result);
  } else {
    parallel::StrategyConfig cfg;
    cfg.device = options_.device;
    cfg.devices = options_.devices;
    cfg.mip = options_.mip;
    cfg.cpu = options_.cpu;
    parallel::StrategyReport sr = parallel::run_strategy(options_.strategy, *working, cfg);
    report.anatomy = sr.result.stats.anatomy;
    report.sim_seconds = sr.sim_seconds;
    report.device_seconds = sr.device_seconds;
    report.host_seconds = sr.host_seconds;
    report.bytes_transferred = sr.bytes_h2d + sr.bytes_d2h;
    report.device_peak_bytes = sr.device_peak_bytes;
    report.strategy_completed = sr.completed;
    report.strategy_failure = sr.failure;
    result = std::move(sr.result);
  }

  // ---- postsolve ----
  if (presolved.has_value()) {
    // Fixed columns contribute a constant the reduced model does not see;
    // it shifts the incumbent and the bound alike.
    double shift = 0.0;
    for (int j = 0; j < model.num_cols(); ++j) {
      const std::size_t k = static_cast<std::size_t>(j);
      if (presolved->col_map[k] < 0) shift += model.lp().col(j).obj * presolved->fixed_value[k];
    }
    result.bound += shift;
    if (result.has_solution) {
      result.objective += shift;
      result.x = presolved->postsolve(result.x);
    }
  }
  report.status = result.status;
  report.has_solution = result.has_solution;
  report.objective = result.objective;
  report.bound = result.bound;
  report.gap = result.gap();
  report.stats = std::move(result.stats);
  if (report.has_solution) report.x = std::move(result.x);
  return report;
}

SolveReport Solver::solve_mps_file(const std::string& path) const {
  return solve(problems::read_mps_file(path));
}

}  // namespace gpumip
