// Primal-dual interior-point LP solver (Mehrotra predictor-corrector).
//
// The paper (section 2.3) notes interior-point methods are the preferred
// family for sparse real-world LPs; the normal-equations system A D Aᵀ is
// factorized by Cholesky each iteration — dense Cholesky on the GPU path,
// sparse Cholesky on the hybrid/CPU path.
// Experiment E9 compares this engine against the simplex.
#pragma once

#include "lp/result.hpp"
#include "lp/standard_form.hpp"

namespace gpumip::lp {

struct InteriorPointOptions {
  double tol = 1e-8;          ///< relative residual + duality-gap target
  int max_iterations = 100;
  bool force_dense = false;
  bool force_sparse = false;
};

class InteriorPointSolver {
 public:
  explicit InteriorPointSolver(const StandardForm& form, InteriorPointOptions options = {});

  /// Solves under the given bounds (defaults to the form's own). Free
  /// variables are split, finite upper bounds become extra rows, so the
  /// core iteration works on min cᵀx, Ax = b, x ≥ 0.
  [[nodiscard]] LpResult solve(std::span<const double> lb, std::span<const double> ub);
  [[nodiscard]] LpResult solve_default() { return solve(form_->lb, form_->ub); }

 private:
  const StandardForm* form_;
  InteriorPointOptions options_;
};

}  // namespace gpumip::lp
