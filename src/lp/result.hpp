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
  long iterations = 0;
  LpOpStats ops;                   ///< linear-algebra recipe of this solve
};

}  // namespace gpumip::lp
