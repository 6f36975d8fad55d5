#include "mip/heuristics.hpp"

#include <cmath>

#include "lp/standard_form.hpp"
#include "obs/obs.hpp"

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
                                 int max_dives, double int_tol, double cutoff) {
  HeuristicResult result;
  if (relaxation.status != lp::LpStatus::Optimal) return result;
  linalg::Vector lb = node_lb, ub = node_ub;
  lp::LpResult current = relaxation;

  // Cutoff stop. Fixing a variable only shrinks the box, so the exact LP
  // optimum of every later level is at least the current level's, and the
  // point the dive would accept can pass the caller's test
  // `objective < cutoff - 1e-12` only while the current bound is below
  // cutoff plus the slack between a reported LP objective and an accepted
  // objective:
  //  - The snap. The accept branch rounds integer columns that are within
  //    int_tol of an integer, moving c·x by at most int_tol·Σ|c_j| over
  //    integer columns.
  //  - The primal tolerance. A re-solve ends with basic variables up to
  //    `tol` outside their bounds (10·`tol` when it falls back to a warm
  //    primal start), so each reported objective can sit up to
  //    10·`tol`·Σ|c_j| over all columns away from the exact optimum of
  //    its box. Two reported objectives are compared (this level's and
  //    the accepting level's), hence twice that.
  double int_cost = 0.0, all_cost = 0.0;
  for (int j = 0; j < form.num_vars; ++j) {
    const double a = std::fabs(form.c[static_cast<std::size_t>(j)]);
    all_cost += a;
    if (j < model.num_cols() && model.is_integer(j)) int_cost += a;
  }
  const double slack = int_tol * int_cost + 20.0 * solver.options().tol * all_cost;

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
    if (current.objective - slack >= cutoff - 1e-12) {
      GPUMIP_OBS_COUNT("gpumip.mip.dive.cutoff_stops");
      return result;
    }
    const std::size_t k = static_cast<std::size_t>(var);
    const double value = current.x[k];
    const double first = std::round(value);
    const double second = first > value ? std::floor(value) : std::ceil(value);
    bool advanced = false;
    for (const double target : {first, second}) {
      if (target < lb[k] - 1e-9 || target > ub[k] + 1e-9) continue;
      const double old_lb = lb[k], old_ub = ub[k];
      lb[k] = ub[k] = target;
      const lp::BasisInverse inverse{&current.binv, current.etas_since_refactor};
      GPUMIP_OBS_COUNT("gpumip.mip.dive.lps");
      lp::LpResult next = solver.resolve_dual(lb, ub, current.basis, &inverse);
      if (next.status == lp::LpStatus::Optimal) {
        current = std::move(next);
        advanced = true;
        break;
      }
      lb[k] = old_lb;
      ub[k] = old_ub;
    }
    if (!advanced) return result;  // both directions infeasible: give up
  }
  return result;
}

}  // namespace gpumip::mip
