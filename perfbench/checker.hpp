// Output checks behind `failed`: every item the benchmark runs is verified
// against its model before it counts as a success.
#pragma once

#include <string>

#include "lp/result.hpp"
#include "lp/standard_form.hpp"
#include "mip/model.hpp"
#include "mip/solver.hpp"

namespace perfbench {

/// Empty when the check passed; otherwise what failed.
using Verdict = std::string;

/// A MIP result must be Optimal with a solution x that lies within the
/// column bounds, satisfies every row within 1e-6 (relative to the row's
/// magnitude), is integral within `int_tol`, has objective cᵀx, and a best
/// bound on the valid side of the incumbent.
Verdict check_mip(const gpumip::mip::MipModel& model, const gpumip::mip::MipResult& result,
                  double int_tol);

/// A batched LP member must be Optimal and primal-feasible: within bounds
/// and with ‖Ax − b‖∞ ≤ feas_tol · (1 + ‖b‖∞).
Verdict check_lp(const gpumip::lp::StandardForm& form, const gpumip::lp::LpResult& result,
                 double feas_tol);

/// |value − reference| ≤ tol · (1 + |reference|).
bool close_to(double value, double reference, double tol);

}  // namespace perfbench
