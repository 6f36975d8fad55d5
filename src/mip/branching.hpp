// Branching-variable selection: most-fractional.
#pragma once

#include <span>
#include <vector>

namespace gpumip::mip {

/// The integer variable whose fractional part is closest to 1/2 (ties go
/// to the lowest index), or -1 if x is integral within int_tol.
int select_branch_var(std::span<const double> x, const std::vector<bool>& integer_cols,
                      double int_tol);

}  // namespace gpumip::mip
