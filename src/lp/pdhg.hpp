// Restarted primal-dual hybrid gradient (PDHG) LP solver — the matrix-free
// first-order backend (ROADMAP item 1, paper claims C6/C7; method after
// PDLP / Blin et al., "Batched First-Order Methods for Parallel LP Solving
// in MIP").
//
// Works directly on the standard form
//
//     min cᵀx   s.t.  Ax = b,  l ≤ x ≤ u
//
// through the saddle point  min_x max_y  cᵀx + yᵀ(b − Ax):
//
//     x⁺ = proj_[l,u](x − τ ∘ (c − Aᵀy))          (one SpMVᵀ + vector ops)
//     y⁺ = y + σ ∘ (b − A(2x⁺ − x))               (one SpMV  + vector ops)
//
// with diagonal step sizes from the matrix row/column 1-norms
// (Chambolle–Pock diagonal preconditioning: τ_j = s/‖A_{·j}‖₁,
// σ_i = s/‖A_{i·}‖₁, convergent for s ≤ 1). The only matrix operations are
// SpMV over the CSR and SpMVᵀ gathered over the CSC view of the same
// matrix — no factorization, no basis, no fill-in — which is why hundreds
// of instances batch into lockstep device waves (lp/batched_lp) and why the
// per-instance device footprint is pdhg_lp_device_bytes, not
// dense_lp_device_bytes.
//
// Restarts: the solver tracks the running average of the iterates (the
// ergodic sequence, which converges faster than the last iterate) and
// every kPdhgCheckInterval iterations scores both candidates with the
// normalized KKT residual (primal residual, dual residual, duality gap).
// When the better candidate has decayed below restart_factor × the score
// at the last restart — or a restart is overdue — the iteration restarts
// from that candidate. This is the PDLP restart scheme that turns PDHG's
// O(1/k) tail into linear convergence on LPs.
//
// Accuracy contract (docs/METHODS.md): a result of status Optimal is
// tol-accurate in the normalized KKT sense, NOT a vertex solution — there
// is no basis, reduced costs come from the final duals, and callers that
// prune on the objective must pad by tol (mip::BnbSolver does). Infeasible
// and Unbounded are certified from the iterate drift ray (an approximate
// Farkas certificate), the standard first-order detection.
#pragma once

#include <optional>
#include <span>

#include "lp/result.hpp"
#include "lp/standard_form.hpp"

namespace gpumip::lp {

/// Iterations between KKT / restart checks; the batched replay prices its
/// KKT-scoring launches on the same cadence.
inline constexpr int kPdhgCheckInterval = 40;

struct PdhgOptions {
  double tol = 1e-6;            ///< normalized KKT target (res_p, res_d, gap)
  long max_iterations = 100000;
  double restart_factor = 0.5;  ///< restart when score ≤ factor × last restart score
  long restart_max_interval = 2000;  ///< force a restart after this many iterations
};

/// Parent iterates to warm-start from (spans must outlive the solve call).
/// Sizes: x over all standard-form variables, y over rows. Empty spans mean
/// a cold start on that side.
struct PdhgWarmStart {
  std::span<const double> x;
  std::span<const double> y;
};

class PdhgSolver {
 public:
  explicit PdhgSolver(const StandardForm& form, PdhgOptions options = {});

  /// Solves under the given variable bounds (sizes = form.num_vars, and
  /// lb ≤ ub; throws Error otherwise), optionally warm-started from a
  /// parent's primal/dual iterates.
  [[nodiscard]] LpResult solve(std::span<const double> lb, std::span<const double> ub,
                               const PdhgWarmStart* warm = nullptr);

  /// Solve with the form's own bounds. SolveTiming::Caller leaves out this
  /// solve's gpumip.lp.solve.seconds sample (the caller times it).
  [[nodiscard]] LpResult solve_default(SolveTiming timing = SolveTiming::Own) {
    return timing == SolveTiming::Own ? solve(form_->lb, form_->ub, nullptr)
                                      : run_pdhg(form_->lb, form_->ub, nullptr);
  }

  const PdhgOptions& options() const noexcept { return options_; }

 private:
  struct Workspace;

  void init_workspace(Workspace& ws, std::span<const double> lb, std::span<const double> ub,
                      const PdhgWarmStart* warm) const;
  /// The per-iteration hot path (gpumip-lint root: allocation-free; all
  /// buffers live in the preallocated Workspace).
  LpStatus iterate_loop(Workspace& ws) const;
  /// Normalized KKT score (max of primal residual, dual residual, gap) of
  /// one candidate point; also reports its primal objective.
  double evaluate_kkt(Workspace& ws, std::span<const double> x, std::span<const double> y,
                      double* objective) const;
  /// Farkas-ray tests on the iterate drift since the last restart.
  std::optional<LpStatus> check_certificates(Workspace& ws) const;
  LpResult finish(Workspace& ws, LpStatus status) const;
  /// solve() without its gpumip.lp.solve.seconds span.
  LpResult run_pdhg(std::span<const double> lb, std::span<const double> ub,
                    const PdhgWarmStart* warm);

  const StandardForm* form_;
  PdhgOptions options_;
};

}  // namespace gpumip::lp
