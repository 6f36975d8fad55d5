// LP solve outcome types.
#pragma once

#include <string>

#include "linalg/matrix.hpp"
#include "lp/basis.hpp"
#include "lp/op_stats.hpp"

namespace gpumip::lp {

enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  NumericalTrouble,
};

const char* lp_status_name(LpStatus status) noexcept;

/// Who records a solve's gpumip.lp.solve.seconds sample: the solve itself,
/// or a caller that times many solves as one host phase (the batched entry
/// points of lp/batched_lp.hpp, whose members run on worker threads).
enum class SolveTiming {
  Own,
  Caller,
};

struct LpResult {
  LpStatus status = LpStatus::NumericalTrouble;
  double objective = 0.0;          ///< minimization objective (standard form)
  linalg::Vector x;                ///< values for all standard-form variables
  linalg::Vector duals;            ///< row duals y
  linalg::Vector reduced_costs;    ///< per-variable reduced costs
  Basis basis;                     ///< final basis (valid when Optimal)
  /// Simplex only: the final explicit B⁻¹ (columns in `basis.basic` order),
  /// moved out of the solve's workspace, and the eta updates applied to it
  /// since its last refactorization. Empty for basis-free methods.
  linalg::Matrix binv;
  int etas_since_refactor = 0;
  /// Simplex only: the solve started from an inherited B⁻¹ (BasisInverse)
  /// instead of refactorizing its warm basis.
  bool inherited_inverse = false;
  long iterations = 0;
  LpOpStats ops;                   ///< linear-algebra recipe of this solve
};

/// Non-owning view of a parent solve's final B⁻¹ for a warm-started child:
/// branching changes bounds, never B, so it is exactly the child's starting
/// inverse. `etas` is the parent's LpResult::etas_since_refactor.
struct BasisInverse {
  const linalg::Matrix* binv = nullptr;
  int etas = 0;
};

}  // namespace gpumip::lp
