#include "mip/heuristics.hpp"

#include <cmath>

#include "lp/standard_form.hpp"

namespace gpumip::mip {

namespace {

double min_objective(const MipModel& model, const lp::StandardForm& form,
                     std::span<const double> x) {
  double obj = 0.0;
  for (int j = 0; j < model.num_cols(); ++j) {
    obj += form.c[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
  }
  return obj;
}

}  // namespace

HeuristicResult rounding_heuristic(const MipModel& model, const sparse::Csr& rows,
                                   const lp::StandardForm& form,
                                   std::span<const double> lp_x, double int_tol) {
  HeuristicResult result;
  linalg::Vector rounded(lp_x.begin(), lp_x.begin() + model.num_cols());
  for (int j = 0; j < model.num_cols(); ++j) {
    if (model.is_integer(j)) {
      rounded[static_cast<std::size_t>(j)] = std::round(rounded[static_cast<std::size_t>(j)]);
    }
  }
  if (model.is_feasible(rounded, rows, 1e-6) && model.is_integral(rounded, int_tol)) {
    result.found = true;
    result.x = std::move(rounded);
    result.objective = min_objective(model, form, result.x);
  }
  return result;
}

HeuristicResult diving_heuristic(const MipModel& model, const lp::StandardForm& form,
                                 lp::SimplexSolver& solver, const lp::LpResult& relaxation,
                                 const linalg::Vector& node_lb, const linalg::Vector& node_ub,
                                 int max_dives, double int_tol) {
  HeuristicResult result;
  if (relaxation.status != lp::LpStatus::Optimal) return result;
  linalg::Vector lb = node_lb, ub = node_ub;
  lp::LpResult current = relaxation;

  for (int dive = 0; dive < max_dives; ++dive) {
    // Find the most fractional integer variable.
    int var = -1;
    double best_dist = int_tol;
    for (int j = 0; j < model.num_cols(); ++j) {
      if (!model.is_integer(j)) continue;
      const double v = current.x[static_cast<std::size_t>(j)];
      const double dist = std::fabs(v - std::round(v));
      if (dist > best_dist) {
        best_dist = dist;
        var = j;
      }
    }
    if (var < 0) {
      // Integral: accept.
      result.found = true;
      result.x.assign(current.x.begin(), current.x.begin() + model.num_cols());
      // Snap near-integers exactly.
      for (int j = 0; j < model.num_cols(); ++j) {
        if (model.is_integer(j)) {
          result.x[static_cast<std::size_t>(j)] = std::round(result.x[static_cast<std::size_t>(j)]);
        }
      }
      result.objective = min_objective(model, form, result.x);
      return result;
    }
    const std::size_t k = static_cast<std::size_t>(var);
    const double value = current.x[k];
    const double first = std::round(value);
    const double second = first > value ? std::floor(value) : std::ceil(value);
    bool advanced = false;
    for (const double target : {first, second}) {
      if (target < lb[k] - 1e-9 || target > ub[k] + 1e-9) continue;
      linalg::Vector try_lb = lb, try_ub = ub;
      try_lb[k] = try_ub[k] = target;
      const lp::BasisInverse inverse{&current.binv, current.etas_since_refactor};
      lp::LpResult next = solver.resolve_dual(try_lb, try_ub, current.basis, &inverse);
      if (next.status == lp::LpStatus::Optimal) {
        lb = std::move(try_lb);
        ub = std::move(try_ub);
        current = std::move(next);
        advanced = true;
        break;
      }
    }
    if (!advanced) return result;  // both directions infeasible: give up
  }
  return result;
}

}  // namespace gpumip::mip
