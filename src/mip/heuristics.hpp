// Primal heuristics: cheap searches for good incumbents. In the hybrid
// strategy (paper section 3, strategy 3) these run on spare CPU cores while
// the GPU grinds LP relaxations.
#pragma once

#include "lp/simplex.hpp"
#include "mip/model.hpp"

namespace gpumip::mip {

struct HeuristicResult {
  bool found = false;
  linalg::Vector x;       ///< structural variable values
  double objective = 0.0; ///< min-form objective
};

/// Rounds the LP point to the nearest integers and accepts if feasible.
/// `rows` is model.lp().matrix() (see MipModel::is_feasible).
HeuristicResult rounding_heuristic(const MipModel& model, const sparse::Csr& rows,
                                   const lp::StandardForm& form,
                                   std::span<const double> lp_x, double int_tol = 1e-6);

/// Fractional diving: repeatedly fix the most fractional variable to its
/// nearest integer and dual-resolve from the previous level's basis and
/// B⁻¹; backtracks once per level on infeasibility.
HeuristicResult diving_heuristic(const MipModel& model, const lp::StandardForm& form,
                                 lp::SimplexSolver& solver, const lp::LpResult& relaxation,
                                 int max_dives = 100, double int_tol = 1e-6);

}  // namespace gpumip::mip
