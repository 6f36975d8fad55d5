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

/// Fractional diving from the node whose box is [node_lb, node_ub] and
/// whose LP solution is `relaxation`: repeatedly fix the most fractional
/// variable to its nearest integer inside the current box and dual-resolve
/// from the previous level's basis and B⁻¹; backtracks once per level on
/// infeasibility. Every point it visits lies inside the node's box.
/// `cutoff` is the caller's incumbent objective: the dive gives up (found =
/// false) once its LP bound shows that no point it can still reach has an
/// objective below `cutoff - 1e-12`, so every solution it would have
/// returned below that line it still returns, bit for bit.
HeuristicResult diving_heuristic(const MipModel& model, const lp::StandardForm& form,
                                 lp::SimplexSolver& solver, const lp::LpResult& relaxation,
                                 const linalg::Vector& node_lb, const linalg::Vector& node_ub,
                                 int max_dives = 100, double int_tol = 1e-6,
                                 double cutoff = 1e300);

}  // namespace gpumip::mip
