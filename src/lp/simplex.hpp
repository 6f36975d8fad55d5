// Revised bounded-variable simplex with an explicit dense basis inverse
// maintained by product-form (eta) rank-1 updates and periodic
// refactorization — the exterior-point engine of the paper's sections 4.3
// and 5.1. Includes:
//
//  * primal simplex with a phase-1 of artificial variables (cold start or
//    warm start from a basis),
//  * dual simplex for re-solving after bound changes (the warm-start path
//    a branch-and-bound child takes, section 5.3),
//  * Dantzig pricing with Bland's-rule fallback for anti-cycling,
//  * bound flips for ranged variables,
//  * full operation accounting (LpOpStats) so strategies can charge the
//    work to a simulated GPU or CPU timeline.
//
// The explicit dense B⁻¹ mirrors how a GPU implementation would hold the
// basis inverse device-resident and update it with uniform m x m kernels
// (cf. the modified-product-form-of-inverse GPU simplex line of work the
// paper cites).
#pragma once

#include <optional>
#include <vector>

#include "lp/result.hpp"
#include "lp/standard_form.hpp"

namespace gpumip::lp {

struct SimplexOptions {
  double tol = 1e-7;            ///< primal/dual feasibility tolerance
  long max_iterations = 50000;
  int refactor_interval = 64;   ///< eta updates between refactorizations
  int bland_threshold = 80;     ///< degenerate pivots before Bland's rule
};

class SimplexSolver {
 public:
  explicit SimplexSolver(const StandardForm& form, SimplexOptions options = {});

  /// Primal solve under the given variable bounds (sizes = form.num_vars).
  /// A warm basis is used when it is primal feasible under the bounds;
  /// otherwise a cold phase-1 start runs.
  [[nodiscard]] LpResult solve(std::span<const double> lb, std::span<const double> ub,
                 const Basis* warm = nullptr);

  /// Solve with the form's own bounds. SolveTiming::Caller leaves out this
  /// solve's gpumip.lp.solve.seconds sample (the caller times it).
  [[nodiscard]] LpResult solve_default(SolveTiming timing = SolveTiming::Own) {
    return timing == SolveTiming::Own ? solve(form_->lb, form_->ub, nullptr)
                                      : run_primal(form_->lb, form_->ub, nullptr);
  }

  /// Dual-simplex re-solve from a basis that is dual feasible (typically a
  /// parent's optimal basis after branching tightened some bounds). Falls
  /// back to a primal cold start if the basis is not usable. `inverse`, when
  /// given, is the B⁻¹ of `basis` (the parent's final one): it is installed
  /// instead of refactorizing when it is m x m and its eta count is below
  /// refactor_interval.
  [[nodiscard]] LpResult resolve_dual(std::span<const double> lb, std::span<const double> ub,
                        const Basis& basis, const BasisInverse* inverse = nullptr);

  const SimplexOptions& options() const noexcept { return options_; }

 private:
  // ---- shared state for one solve ----
  struct Workspace;
  enum class PhaseResult { Optimal, Unbounded, IterationLimit, Singular };

  void init_workspace(Workspace& ws, std::span<const double> lb,
                      std::span<const double> ub) const;
  /// Rebuilds the basis matrix B from the current basic set (checked-mode
  /// residual validation and refactorization share this).
  linalg::Matrix basis_matrix(const Workspace& ws) const;
  bool try_warm_start(Workspace& ws, const Basis& warm, const BasisInverse* inverse);
  void cold_start(Workspace& ws) const;
  /// Sets B⁻¹ of the current basis; serves an all-structural basis equal to
  /// the last one from memo_binv_.
  void refactorize(Workspace& ws);
  void recompute_basic_values(Workspace& ws) const;
  /// Both return references into Workspace scratch (ftran_w / dual_y) so
  /// the per-pivot path stays allocation-free; each call overwrites the
  /// previous result for its buffer.
  const linalg::Vector& ftran_column(Workspace& ws, int var) const;
  const linalg::Vector& compute_duals(Workspace& ws, const linalg::Vector& cost) const;
  double reduced_cost(const Workspace& ws, const linalg::Vector& y,
                      const linalg::Vector& cost, int var) const;
  PhaseResult primal_loop(Workspace& ws, const linalg::Vector& cost, bool phase_one);
  LpResult finish(Workspace& ws, LpStatus status) const;
  LpResult run_primal(std::span<const double> lb, std::span<const double> ub,
                      const Basis* warm, const BasisInverse* inverse = nullptr);

  const StandardForm* form_;
  SimplexOptions options_;
  /// The ordered basic list and B⁻¹ of this solver's last all-structural
  /// refactorization (empty before the first). Both children of a B&B
  /// parent whose inverse was evicted refactorize the same basis; the
  /// second is served from here. This state makes a solver unsafe to share
  /// between threads.
  std::vector<int> memo_basic_;
  linalg::Matrix memo_binv_;
};

}  // namespace gpumip::lp
