#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/eta.hpp"
#include "linalg/lu.hpp"
#include "check/invariants.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sparse/ops.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"

namespace gpumip::lp {

namespace {

/// Smallest pivot magnitude the ratio tests accept.
constexpr double kPivotTol = 1e-9;

}  // namespace

const char* lp_status_name(LpStatus status) noexcept {
  switch (status) {
    case LpStatus::Optimal: return "Optimal";
    case LpStatus::Infeasible: return "Infeasible";
    case LpStatus::Unbounded: return "Unbounded";
    case LpStatus::IterationLimit: return "IterationLimit";
    case LpStatus::NumericalTrouble: return "NumericalTrouble";
  }
  return "Unknown";
}

// Workspace indices: variables 0..n-1 are the standard form's (structural +
// slack); n..n+m-1 are phase-1 artificials (column ±e_i).
struct SimplexSolver::Workspace {
  int m = 0;
  int n = 0;
  int total = 0;
  linalg::Vector lb, ub;          // size total
  std::vector<double> art_sign;   // size m
  linalg::Vector x;               // size total
  std::vector<VarStatus> status;  // size total
  std::vector<int> basic;         // size m
  linalg::Matrix binv;            // m x m explicit inverse (set by the start)
  int etas_since_refactor = 0;
  bool inherited = false;         // binv was installed from a BasisInverse
  long iterations = 0;
  int degenerate_streak = 0;
  LpOpStats ops;
  // Per-pivot scratch, sized once in init_workspace so the iteration loop
  // never allocates: compute_duals fills dual_y, ftran_column fills
  // ftran_w, each returning a reference to its buffer; the dual loop copies
  // row r of B⁻¹ into rho, each pivot rebuilds eta in place, and
  // recompute_basic_values forms its right-hand side and x_B in basic_rhs
  // and basic_x.
  linalg::Vector dual_y;     // size m
  linalg::Vector ftran_w;    // size m
  linalg::Vector rho;        // size m
  linalg::Eta eta;           // column of size m
  linalg::Vector basic_rhs;  // size m
  linalg::Vector basic_x;    // size m
};

SimplexSolver::SimplexSolver(const StandardForm& form, SimplexOptions options)
    : form_(&form), options_(options) {
  check_arg(form.num_vars == static_cast<int>(form.lb.size()), "standard form inconsistent");
}

void SimplexSolver::init_workspace(Workspace& ws, std::span<const double> lb,
                                   std::span<const double> ub) const {
  const int m = form_->num_rows;
  const int n = form_->num_vars;
  check_arg(static_cast<int>(lb.size()) == n && static_cast<int>(ub.size()) == n,
            "solve: bound vector size mismatch");
  ws.m = m;
  ws.n = n;
  ws.total = n + m;
  ws.lb.assign(lb.begin(), lb.end());
  ws.ub.assign(ub.begin(), ub.end());
  for (int j = 0; j < n; ++j) {
    if (!(ws.lb[static_cast<std::size_t>(j)] <= ws.ub[static_cast<std::size_t>(j)])) {
      check_arg(false, "solve: lb > ub for variable " + std::to_string(j));
    }
  }
  // Artificial bounds start [0, inf); they get fixed to 0 once they leave.
  ws.lb.resize(static_cast<std::size_t>(ws.total), 0.0);
  ws.ub.resize(static_cast<std::size_t>(ws.total), kInf);
  ws.art_sign.assign(static_cast<std::size_t>(m), 1.0);
  ws.x.assign(static_cast<std::size_t>(ws.total), 0.0);
  ws.status.assign(static_cast<std::size_t>(ws.total), VarStatus::AtLower);
  ws.basic.assign(static_cast<std::size_t>(m), -1);
  // binv stays as it is: cold_start writes the identity, a warm start
  // copies an inherited inverse or refactorizes into it.
  ws.etas_since_refactor = 0;
  ws.inherited = false;
  ws.dual_y.assign(static_cast<std::size_t>(m), 0.0);
  ws.ftran_w.assign(static_cast<std::size_t>(m), 0.0);
  ws.rho.assign(static_cast<std::size_t>(m), 0.0);
  ws.eta.column.assign(static_cast<std::size_t>(m), 0.0);
  ws.basic_rhs.assign(static_cast<std::size_t>(m), 0.0);
  ws.basic_x.assign(static_cast<std::size_t>(m), 0.0);
  ws.ops.m = m;
  ws.ops.n = n;
  ws.ops.nnz = form_->a_rows.nnz();
}

namespace {

/// Nonbasic resting value for a variable given its status and bounds.
double nonbasic_value(VarStatus status, double lb, double ub) {
  switch (status) {
    case VarStatus::AtLower: return lb;
    case VarStatus::AtUpper: return ub;
    case VarStatus::Free: return 0.0;
    case VarStatus::Basic: break;
  }
  return 0.0;
}

/// Picks a sensible nonbasic status for the bounds.
VarStatus default_status(double lb, double ub) {
  if (std::isfinite(lb)) return VarStatus::AtLower;
  if (std::isfinite(ub)) return VarStatus::AtUpper;
  return VarStatus::Free;
}

}  // namespace

void SimplexSolver::cold_start(Workspace& ws) const {
  // Nonbasic variables to their natural bound, artificials basic.
  for (int v = 0; v < ws.n; ++v) {
    const std::size_t k = static_cast<std::size_t>(v);
    ws.status[k] = default_status(ws.lb[k], ws.ub[k]);
    ws.x[k] = nonbasic_value(ws.status[k], ws.lb[k], ws.ub[k]);
  }
  // Row residuals define the artificial values and signs.
  linalg::Vector residual = form_->b;
  sparse::spmv(-1.0, form_->a_rows, std::span<const double>(ws.x.data(), ws.n), 1.0, residual);
  ws.binv = linalg::Matrix(ws.m, ws.m);
  for (int i = 0; i < ws.m; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    ws.art_sign[k] = residual[k] >= 0.0 ? 1.0 : -1.0;
    const int art = ws.n + i;
    ws.basic[k] = art;
    ws.status[static_cast<std::size_t>(art)] = VarStatus::Basic;
    ws.x[static_cast<std::size_t>(art)] = std::fabs(residual[k]);
    ws.binv(i, i) = ws.art_sign[k];  // B = diag(sign) -> B⁻¹ = diag(sign)
  }
}

bool SimplexSolver::try_warm_start(Workspace& ws, const Basis& warm,
                                   const BasisInverse* inverse) {
  if (static_cast<int>(warm.basic.size()) != ws.m ||
      static_cast<int>(warm.status.size()) != ws.n) {
    return false;
  }
  for (int v : warm.basic) {
    if (v < 0 || v >= ws.n) return false;  // basis mentions artificials: unusable
  }
  // Install statuses, repairing ones that no longer match the bounds (a
  // nonbasic Free variable rests at 0, which a finite bound may exclude).
  for (int v = 0; v < ws.n; ++v) {
    const std::size_t k = static_cast<std::size_t>(v);
    VarStatus st = warm.status[k];
    if (st == VarStatus::AtLower && !std::isfinite(ws.lb[k])) st = default_status(ws.lb[k], ws.ub[k]);
    if (st == VarStatus::AtUpper && !std::isfinite(ws.ub[k])) st = default_status(ws.lb[k], ws.ub[k]);
    if (st == VarStatus::Free) st = default_status(ws.lb[k], ws.ub[k]);
    ws.status[k] = st;
  }
  for (int i = 0; i < ws.m; ++i) {
    ws.basic[static_cast<std::size_t>(i)] = warm.basic[static_cast<std::size_t>(i)];
    ws.status[static_cast<std::size_t>(warm.basic[static_cast<std::size_t>(i)])] =
        VarStatus::Basic;
  }
  for (int v = 0; v < ws.n; ++v) {
    const std::size_t k = static_cast<std::size_t>(v);
    if (ws.status[k] != VarStatus::Basic) {
      ws.x[k] = nonbasic_value(ws.status[k], ws.lb[k], ws.ub[k]);
    }
  }
  for (int i = 0; i < ws.m; ++i) {
    ws.x[static_cast<std::size_t>(ws.n + i)] = 0.0;
    ws.lb[static_cast<std::size_t>(ws.n + i)] = 0.0;
    ws.ub[static_cast<std::size_t>(ws.n + i)] = 0.0;
  }
  // Paper C3: a child inherits its parent's B⁻¹ (same basic columns in the
  // same order) and continues its eta count; it refactorizes only when that
  // count is due or the inverse does not fit.
  if (inverse != nullptr && inverse->binv != nullptr && inverse->binv->rows() == ws.m &&
      inverse->binv->cols() == ws.m && inverse->etas < options_.refactor_interval) {
    ws.binv = *inverse->binv;
    ws.etas_since_refactor = inverse->etas;
    ws.inherited = true;
    GPUMIP_VALIDATE(check::check_basis_inverse(basis_matrix(ws), ws.binv, 1e-4,
                                               "(inherited inverse)"));
    recompute_basic_values(ws);
    return true;
  }
  try {
    refactorize(ws);
  } catch (const NumericalError&) {
    return false;
  }
  return true;
}

linalg::Matrix SimplexSolver::basis_matrix(const Workspace& ws) const {
  linalg::Matrix b(ws.m, ws.m);
  for (int i = 0; i < ws.m; ++i) {
    const int v = ws.basic[static_cast<std::size_t>(i)];
    if (v >= ws.n) {
      b(v - ws.n, i) = ws.art_sign[static_cast<std::size_t>(v - ws.n)];
    } else {
      const auto& a = form_->a_cols;
      for (int k = a.col_start[static_cast<std::size_t>(v)];
           k < a.col_start[static_cast<std::size_t>(v) + 1]; ++k) {
        b(a.row_index[static_cast<std::size_t>(k)], i) = a.values[static_cast<std::size_t>(k)];
      }
    }
  }
  return b;
}

void SimplexSolver::refactorize(Workspace& ws) {
  // Paper C3: eta-file length at the moment the file is flushed.
  GPUMIP_OBS_RECORD("gpumip.lp.simplex.eta_length", static_cast<double>(ws.etas_since_refactor));
  GPUMIP_TRACE_INSTANT("gpumip.lp.simplex.refactor", ws.etas_since_refactor);
  // An artificial column is ±e_i with a sign the bounds set, so only an
  // all-structural basis is a function of its ordered basic list alone.
  const bool structural =
      std::all_of(ws.basic.begin(), ws.basic.end(), [&](int v) { return v < ws.n; });
  if (structural && !memo_basic_.empty() && ws.basic == memo_basic_) {
    // The same LU of the same matrix would give this inverse bit for bit;
    // the modelled solver still refactorizes, so ops.refactor counts it.
    ws.binv = memo_binv_;
    GPUMIP_OBS_COUNT("gpumip.lp.refactor.reused");
    GPUMIP_VALIDATE(check::check_basis_inverse(basis_matrix(ws), ws.binv, 1e-6,
                                               "(reused refactorization)"));
  } else {
    // Rebuild B from the basic columns and invert via LU.
    const linalg::Matrix b = basis_matrix(ws);
    linalg::DenseLU lu(b);  // throws NumericalError when basis is singular
    ws.binv = lu.inverse();
    // Paper C3: a fresh factorization must reproduce B to LU accuracy.
    GPUMIP_VALIDATE(check::check_basis_inverse(b, ws.binv, 1e-6, "(after refactorize)"));
    if (structural) {
      // assign, not operator=: a second vector<int> copy-assignment in this
      // file made GCC out-line the one finish() inlines (lp_batch_simplex,
      // which never refactorizes, read 0.9% slower).
      memo_basic_.assign(ws.basic.begin(), ws.basic.end());
      memo_binv_ = ws.binv;
    }
  }
  ws.etas_since_refactor = 0;
  ++ws.ops.refactor;
  recompute_basic_values(ws);
}

void SimplexSolver::recompute_basic_values(Workspace& ws) const {
  // x_B = B⁻¹ (b - Σ_{nonbasic j} x_j A_j)
  linalg::Vector& rhs = ws.basic_rhs;
  std::copy(form_->b.begin(), form_->b.end(), rhs.begin());
  for (int v = 0; v < ws.total; ++v) {
    const std::size_t k = static_cast<std::size_t>(v);
    if (ws.status[k] == VarStatus::Basic || ws.x[k] == 0.0) continue;
    if (v >= ws.n) {
      rhs[static_cast<std::size_t>(v - ws.n)] -= ws.art_sign[static_cast<std::size_t>(v - ws.n)] * ws.x[k];
    } else {
      const auto& a = form_->a_cols;
      for (int e = a.col_start[k]; e < a.col_start[k + 1]; ++e) {
        rhs[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(e)])] -=
            a.values[static_cast<std::size_t>(e)] * ws.x[k];
      }
    }
  }
  // gemv scales xb by beta = 0 first, so stale entries must be +0.0 (a
  // negative one would leave a -0.0 in a row whose products are all skipped).
  linalg::Vector& xb = ws.basic_x;
  std::fill(xb.begin(), xb.end(), 0.0);
  linalg::gemv(1.0, ws.binv, rhs, 0.0, xb);
  ++ws.ops.ftran;
  for (int i = 0; i < ws.m; ++i) {
    ws.x[static_cast<std::size_t>(ws.basic[static_cast<std::size_t>(i)])] =
        xb[static_cast<std::size_t>(i)];
  }
}

// The per-pivot FTRAN. Its entry is pinned to a 64-byte boundary so that the
// placement of its loop does not depend on the size of unrelated code linked
// before it (see linalg::sub_scaled).
[[gnu::aligned(64)]] const linalg::Vector& SimplexSolver::ftran_column(Workspace& ws,
                                                                     int var) const {
  // w = B⁻¹ a_var, exploiting sparsity of a_var. Fills ws.ftran_w in place
  // so the per-pivot path never allocates.
  linalg::Vector& w = ws.ftran_w;
  std::fill(w.begin(), w.end(), 0.0);
  if (var >= ws.n) {
    const int row = var - ws.n;
    const double s = ws.art_sign[static_cast<std::size_t>(row)];
    for (int i = 0; i < ws.m; ++i) w[static_cast<std::size_t>(i)] = s * ws.binv(i, row);
  } else {
    const auto& a = form_->a_cols;
    for (int e = a.col_start[static_cast<std::size_t>(var)];
         e < a.col_start[static_cast<std::size_t>(var) + 1]; ++e) {
      const int r = a.row_index[static_cast<std::size_t>(e)];
      const double v = a.values[static_cast<std::size_t>(e)];
      for (int i = 0; i < ws.m; ++i) w[static_cast<std::size_t>(i)] += v * ws.binv(i, r);
    }
  }
  ++ws.ops.ftran;
  return w;
}

const linalg::Vector& SimplexSolver::compute_duals(Workspace& ws,
                                                   const linalg::Vector& cost) const {
  // y = B⁻ᵀ c_B as a combination of the rows of B⁻¹: y[c] is the sum over
  // r of B⁻¹(r,c)·c_B[r] in ascending r, the order of a column-by-column
  // dot product, so every bit matches one. A zero cost adds a ±0 product
  // to a sum that starts at +0 and so is never -0, which leaves it as it
  // is: those rows (slacks, retired artificials) are skipped, and the m
  // sums run side by side instead of as m serial chains.
  linalg::Vector& y = ws.dual_y;
  std::fill(y.begin(), y.end(), 0.0);
  const std::size_t m = static_cast<std::size_t>(ws.m);
  for (std::size_t r = 0; r < m; ++r) {
    // A basic variable beyond `cost` is an artificial still in the basis
    // after an abnormal stop (iteration limit / singularity during phase 1);
    // its phase-2 cost is zero, it is not an out-of-bounds read.
    const std::size_t v = static_cast<std::size_t>(ws.basic[r]);
    const double cr = v < cost.size() ? cost[v] : 0.0;
    if (cr == 0.0) continue;
    const double* row = ws.binv.data() + r;  // B⁻¹(r, c) = row[c·m]
    for (std::size_t c = 0; c < m; ++c) y[c] += row[c * m] * cr;
  }
  ++ws.ops.btran;
  return y;
}

double SimplexSolver::reduced_cost(const Workspace& ws, const linalg::Vector& y,
                                   const linalg::Vector& cost, int var) const {
  double d = cost[static_cast<std::size_t>(var)];
  if (var >= ws.n) {
    d -= ws.art_sign[static_cast<std::size_t>(var - ws.n)] *
         y[static_cast<std::size_t>(var - ws.n)];
  } else {
    d -= sparse::column_dot(form_->a_cols, var, y);
  }
  return d;
}

SimplexSolver::PhaseResult SimplexSolver::primal_loop(Workspace& ws,
                                                      const linalg::Vector& cost,
                                                      bool phase_one) {
  const double tol = options_.tol;
  for (;;) {
    if (ws.iterations >= options_.max_iterations) return PhaseResult::IterationLimit;
    if (ws.etas_since_refactor >= options_.refactor_interval) {
      try {
        refactorize(ws);
      } catch (const NumericalError&) {
        return PhaseResult::Singular;
      }
    }
    const linalg::Vector& y = compute_duals(ws, cost);
    ++ws.ops.price_full;
    const bool bland = ws.degenerate_streak > options_.bland_threshold;
    if (ws.degenerate_streak == options_.bland_threshold + 1) {
      GPUMIP_TRACE_INSTANT("gpumip.lp.simplex.bland", ws.iterations);
    }

    int entering = -1;
    double entering_d = 0.0;
    double best_score = tol;
    for (int v = 0; v < ws.total; ++v) {
      const std::size_t k = static_cast<std::size_t>(v);
      if (ws.status[k] == VarStatus::Basic) continue;
      if (ws.lb[k] == ws.ub[k]) continue;  // fixed (incl. retired artificials)
      if (!phase_one && v >= ws.n) continue;
      const double d = reduced_cost(ws, y, cost, v);
      double score = 0.0;
      if ((ws.status[k] == VarStatus::AtLower || ws.status[k] == VarStatus::Free) && d < -tol) {
        score = -d;
      } else if ((ws.status[k] == VarStatus::AtUpper || ws.status[k] == VarStatus::Free) &&
                 d > tol) {
        score = d;
      }
      if (score <= 0.0) continue;
      if (bland) {
        entering = v;
        entering_d = d;
        break;
      }
      if (score > best_score) {
        best_score = score;
        entering = v;
        entering_d = d;
      }
    }
    if (entering < 0) return PhaseResult::Optimal;

    const std::size_t qk = static_cast<std::size_t>(entering);
    double sigma;
    if (ws.status[qk] == VarStatus::AtLower) {
      sigma = 1.0;
    } else if (ws.status[qk] == VarStatus::AtUpper) {
      sigma = -1.0;
    } else {
      sigma = entering_d < 0.0 ? 1.0 : -1.0;
    }

    const linalg::Vector& w = ftran_column(ws, entering);

    // Ratio test: entering moves by t >= 0 in direction sigma; basics move
    // by dx_i = -sigma * w_i per unit t.
    double t_best = ws.ub[qk] - ws.lb[qk];  // bound-flip limit (may be inf/nan-free)
    if (!std::isfinite(t_best)) t_best = kInf;
    int leaving_row = -1;
    double leaving_pivot = 0.0;
    for (int i = 0; i < ws.m; ++i) {
      const double dx = -sigma * w[static_cast<std::size_t>(i)];
      if (std::fabs(dx) <= kPivotTol) continue;
      const int bv = ws.basic[static_cast<std::size_t>(i)];
      const std::size_t bk = static_cast<std::size_t>(bv);
      double t_i;
      if (dx < 0.0) {
        if (!std::isfinite(ws.lb[bk])) continue;
        t_i = (ws.x[bk] - ws.lb[bk]) / (-dx);
      } else {
        if (!std::isfinite(ws.ub[bk])) continue;
        t_i = (ws.ub[bk] - ws.x[bk]) / dx;
      }
      if (t_i < 0.0) t_i = 0.0;  // clamp tiny drift
      const bool strictly_better = t_i < t_best - 1e-12;
      const bool tie = std::fabs(t_i - t_best) <= 1e-12;
      const double wmag = std::fabs(w[static_cast<std::size_t>(i)]);
      bool take = strictly_better;
      if (!take && tie && leaving_row >= 0) {
        take = bland ? bv < ws.basic[static_cast<std::size_t>(leaving_row)]
                     : wmag > std::fabs(leaving_pivot);
      } else if (!take && tie && leaving_row < 0) {
        take = true;
      }
      if (take) {
        t_best = std::min(t_best, t_i);
        leaving_row = i;
        leaving_pivot = w[static_cast<std::size_t>(i)];
      }
    }

    if (!std::isfinite(t_best)) return PhaseResult::Unbounded;

    ws.degenerate_streak = t_best <= tol ? ws.degenerate_streak + 1 : 0;
    ++ws.iterations;
    ++ws.ops.iterations;

    // Move basic variables.
    for (int i = 0; i < ws.m; ++i) {
      const double dx = -sigma * w[static_cast<std::size_t>(i)];
      ws.x[static_cast<std::size_t>(ws.basic[static_cast<std::size_t>(i)])] += dx * t_best;
    }

    if (leaving_row < 0) {
      // Bound flip: entering traverses its whole range.
      ws.x[qk] = sigma > 0 ? ws.ub[qk] : ws.lb[qk];
      ws.status[qk] = sigma > 0 ? VarStatus::AtUpper : VarStatus::AtLower;
      ++ws.ops.bound_flips;
      continue;
    }

    const int leaving_var = ws.basic[static_cast<std::size_t>(leaving_row)];
    const std::size_t lk = static_cast<std::size_t>(leaving_var);
    const double dx_leaving = -sigma * w[static_cast<std::size_t>(leaving_row)];
    // Snap the leaving variable exactly to the bound it hit.
    if (dx_leaving < 0.0) {
      ws.x[lk] = ws.lb[lk];
      ws.status[lk] = VarStatus::AtLower;
    } else {
      ws.x[lk] = ws.ub[lk];
      ws.status[lk] = VarStatus::AtUpper;
    }
    if (leaving_var >= ws.n) {
      // Retired artificial: never allow re-entry.
      ws.lb[lk] = 0.0;
      ws.ub[lk] = 0.0;
      ws.x[lk] = 0.0;
      ws.status[lk] = VarStatus::AtLower;
    }
    ws.x[qk] += sigma * t_best;
    ws.status[qk] = VarStatus::Basic;
    ws.basic[static_cast<std::size_t>(leaving_row)] = entering;

    try {
      ws.eta.assign_from_ftran(w, leaving_row);
      ws.eta.apply_to_matrix(ws.binv);
    } catch (const NumericalError&) {
      return PhaseResult::Singular;
    }
    ++ws.ops.eta_updates;
    ++ws.etas_since_refactor;
    // Paper C3: the eta-updated inverse must still invert the new basis.
    GPUMIP_VALIDATE(check::check_basis_inverse(basis_matrix(ws), ws.binv, 1e-4,
                                               "(after primal eta update)"));
  }
}

LpResult SimplexSolver::finish(Workspace& ws, LpStatus status) const {
  GPUMIP_OBS_COUNT_L("gpumip.lp.solves", {"method", "simplex"});
  GPUMIP_OBS_RECORD("gpumip.lp.simplex.eta_length", static_cast<double>(ws.etas_since_refactor));
  publish_op_stats(ws.ops);
  LpResult result;
  result.status = status;
  result.iterations = ws.iterations;
  result.ops = ws.ops;
  result.x.assign(ws.x.begin(), ws.x.begin() + ws.n);
  const linalg::Vector& cost = form_->c;
  double obj = 0.0;
  for (int v = 0; v < ws.n; ++v) obj += cost[static_cast<std::size_t>(v)] * ws.x[static_cast<std::size_t>(v)];
  result.objective = obj;
  if (ws.m > 0) {
    result.duals = compute_duals(ws, cost);
  }
  result.reduced_costs.assign(static_cast<std::size_t>(ws.n), 0.0);
  if (!result.duals.empty() || ws.m == 0) {
    for (int v = 0; v < ws.n; ++v) {
      result.reduced_costs[static_cast<std::size_t>(v)] =
          ws.m == 0 ? cost[static_cast<std::size_t>(v)]
                    : reduced_cost(ws, result.duals, cost, v);
    }
  }
  result.basis.basic = ws.basic;
  result.basis.status.assign(ws.status.begin(), ws.status.begin() + ws.n);
  result.binv = std::move(ws.binv);
  result.etas_since_refactor = ws.etas_since_refactor;
  result.inherited_inverse = ws.inherited;
  // The basis handed to branch-and-bound children must be structurally
  // sound; a degenerate basic artificial can legitimately survive phase 1,
  // so only a fully structural basis is validated against the form.
  GPUMIP_VALIDATE({
    if (status == LpStatus::Optimal &&
        std::all_of(result.basis.basic.begin(), result.basis.basic.end(),
                    [&](int v) { return v < ws.n; })) {
      check::check_basis(*form_, result.basis);
    }
  });
  return result;
}

LpResult SimplexSolver::run_primal(std::span<const double> lb, std::span<const double> ub,
                                   const Basis* warm, const BasisInverse* inverse) {
  Workspace ws;
  init_workspace(ws, lb, ub);

  bool warm_ok = false;
  if (warm != nullptr && !warm->empty()) {
    warm_ok = try_warm_start(ws, *warm, inverse);
    if (warm_ok) {
      // Warm basis must also be primal feasible to skip phase 1.
      for (int i = 0; i < ws.m && warm_ok; ++i) {
        const std::size_t bk = static_cast<std::size_t>(ws.basic[static_cast<std::size_t>(i)]);
        if (ws.x[bk] < ws.lb[bk] - 10 * options_.tol || ws.x[bk] > ws.ub[bk] + 10 * options_.tol) {
          warm_ok = false;
        }
      }
    }
    if (!warm_ok) {
      // Reset workspace for a cold start.
      init_workspace(ws, lb, ub);
    }
  }

  if (!warm_ok) {
    cold_start(ws);
    // Phase 1: minimize the sum of artificials.
    linalg::Vector phase1_cost(static_cast<std::size_t>(ws.total), 0.0);
    for (int i = 0; i < ws.m; ++i) phase1_cost[static_cast<std::size_t>(ws.n + i)] = 1.0;
    const PhaseResult p1 = primal_loop(ws, phase1_cost, /*phase_one=*/true);
    if (p1 == PhaseResult::IterationLimit) return finish(ws, LpStatus::IterationLimit);
    if (p1 == PhaseResult::Singular) return finish(ws, LpStatus::NumericalTrouble);
    check_internal(p1 != PhaseResult::Unbounded, "phase 1 cannot be unbounded");
    double infeasibility = 0.0;
    for (int i = 0; i < ws.m; ++i) {
      infeasibility += ws.x[static_cast<std::size_t>(ws.n + i)];
    }
    if (infeasibility > 1e-6) return finish(ws, LpStatus::Infeasible);
    // Fix all artificials at zero for phase 2.
    for (int i = 0; i < ws.m; ++i) {
      const std::size_t k = static_cast<std::size_t>(ws.n + i);
      ws.lb[k] = ws.ub[k] = 0.0;
      if (ws.status[k] != VarStatus::Basic) {
        ws.x[k] = 0.0;
        ws.status[k] = VarStatus::AtLower;
      }
    }
  }

  // Phase 2 on the true objective. Artificial cost entries are zero.
  linalg::Vector cost(static_cast<std::size_t>(ws.total), 0.0);
  std::copy(form_->c.begin(), form_->c.end(), cost.begin());
  const PhaseResult p2 = primal_loop(ws, cost, /*phase_one=*/false);
  switch (p2) {
    case PhaseResult::Optimal: return finish(ws, LpStatus::Optimal);
    case PhaseResult::Unbounded: return finish(ws, LpStatus::Unbounded);
    case PhaseResult::IterationLimit: return finish(ws, LpStatus::IterationLimit);
    case PhaseResult::Singular: return finish(ws, LpStatus::NumericalTrouble);
  }
  return finish(ws, LpStatus::NumericalTrouble);
}

LpResult SimplexSolver::solve(std::span<const double> lb, std::span<const double> ub,
                              const Basis* warm) {
  GPUMIP_OBS_SPAN_L("gpumip.lp.solve.seconds", {"method", "simplex"});
  return run_primal(lb, ub, warm);
}

LpResult SimplexSolver::resolve_dual(std::span<const double> lb, std::span<const double> ub,
                                     const Basis& basis, const BasisInverse* inverse) {
  GPUMIP_OBS_SPAN_L("gpumip.lp.solve.seconds", {"method", "simplex"});
  Workspace ws;
  init_workspace(ws, lb, ub);
  if (!try_warm_start(ws, basis, inverse)) {
    return run_primal(lb, ub, nullptr);
  }

  linalg::Vector cost(static_cast<std::size_t>(ws.total), 0.0);
  std::copy(form_->c.begin(), form_->c.end(), cost.begin());

  // Verify dual feasibility of the warm basis; if the reduced costs are off
  // (shouldn't happen when only bounds changed), fall back to primal.
  {
    const linalg::Vector& y = compute_duals(ws, cost);
    ++ws.ops.price_full;
    for (int v = 0; v < ws.n; ++v) {
      const std::size_t k = static_cast<std::size_t>(v);
      if (ws.status[k] == VarStatus::Basic || ws.lb[k] == ws.ub[k]) continue;
      const double d = reduced_cost(ws, y, cost, v);
      const bool bad = (ws.status[k] == VarStatus::AtLower && d < -1e-6) ||
                       (ws.status[k] == VarStatus::AtUpper && d > 1e-6) ||
                       (ws.status[k] == VarStatus::Free && std::fabs(d) > 1e-6);
      if (bad) return run_primal(lb, ub, &basis, inverse);
    }
  }

  const double tol = options_.tol;
  int consecutive_pivot_failures = 0;
  for (;;) {
    if (ws.iterations >= options_.max_iterations) return finish(ws, LpStatus::IterationLimit);
    if (ws.etas_since_refactor >= options_.refactor_interval) {
      try {
        refactorize(ws);
      } catch (const NumericalError&) {
        return finish(ws, LpStatus::NumericalTrouble);
      }
    }

    // Leaving row: most primal-infeasible basic variable.
    int row = -1;
    double worst = tol;
    bool increase = false;
    for (int i = 0; i < ws.m; ++i) {
      const std::size_t bk = static_cast<std::size_t>(ws.basic[static_cast<std::size_t>(i)]);
      const double below = ws.lb[bk] - ws.x[bk];
      const double above = ws.x[bk] - ws.ub[bk];
      if (below > worst) {
        worst = below;
        row = i;
        increase = true;
      }
      if (above > worst) {
        worst = above;
        row = i;
        increase = false;
      }
    }
    if (row < 0) return finish(ws, LpStatus::Optimal);

    const linalg::Vector& y = compute_duals(ws, cost);
    // Row r of B⁻¹ (the BTRAN of e_r).
    linalg::Vector& rho = ws.rho;
    for (int k = 0; k < ws.m; ++k) rho[static_cast<std::size_t>(k)] = ws.binv(row, k);
    ++ws.ops.btran;
    ++ws.ops.price_full;

    int entering = -1;
    double best_ratio = kInf;
    double best_alpha = 0.0;
    const sparse::Csc& a = form_->a_cols;
    for (int v = 0; v < ws.n; ++v) {
      const std::size_t k = static_cast<std::size_t>(v);
      if (ws.status[k] == VarStatus::Basic || ws.lb[k] == ws.ub[k]) continue;
      // alpha = a_v·rho and a_v·y in one pass over the column, each summed
      // in column_dot's order.
      double alpha = 0.0;
      double ay = 0.0;
      for (int e = a.col_start[k]; e < a.col_start[k + 1]; ++e) {
        const double av = a.values[static_cast<std::size_t>(e)];
        const std::size_t r = static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(e)]);
        alpha += av * rho[r];
        ay += av * y[r];
      }
      if (std::fabs(alpha) <= kPivotTol) continue;
      bool admissible;
      if (increase) {
        admissible = (ws.status[k] == VarStatus::AtLower && alpha < 0.0) ||
                     (ws.status[k] == VarStatus::AtUpper && alpha > 0.0) ||
                     ws.status[k] == VarStatus::Free;
      } else {
        admissible = (ws.status[k] == VarStatus::AtLower && alpha > 0.0) ||
                     (ws.status[k] == VarStatus::AtUpper && alpha < 0.0) ||
                     ws.status[k] == VarStatus::Free;
      }
      if (!admissible) continue;
      const double d = cost[k] - ay;
      const double ratio = std::fabs(d) / std::fabs(alpha);
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && std::fabs(alpha) > std::fabs(best_alpha))) {
        best_ratio = ratio;
        entering = v;
        best_alpha = alpha;
      }
    }
    if (entering < 0) return finish(ws, LpStatus::Infeasible);

    const linalg::Vector& w = ftran_column(ws, entering);
    const double pivot = w[static_cast<std::size_t>(row)];
    if (std::fabs(pivot) <= kPivotTol) {
      // Numerically inconsistent with the rho-based alpha; refactorize and
      // retry from a clean representation (bounded number of attempts).
      if (++consecutive_pivot_failures > 3) return finish(ws, LpStatus::NumericalTrouble);
      try {
        refactorize(ws);
      } catch (const NumericalError&) {
        return finish(ws, LpStatus::NumericalTrouble);
      }
      continue;
    }
    consecutive_pivot_failures = 0;

    const int leaving_var = ws.basic[static_cast<std::size_t>(row)];
    const std::size_t lk = static_cast<std::size_t>(leaving_var);
    const double target = increase ? ws.lb[lk] : ws.ub[lk];
    const double delta_q = (ws.x[lk] - target) / pivot;

    for (int i = 0; i < ws.m; ++i) {
      ws.x[static_cast<std::size_t>(ws.basic[static_cast<std::size_t>(i)])] -=
          delta_q * w[static_cast<std::size_t>(i)];
    }
    ws.x[static_cast<std::size_t>(entering)] += delta_q;
    ws.x[lk] = target;
    ws.status[lk] = increase ? VarStatus::AtLower : VarStatus::AtUpper;
    ws.status[static_cast<std::size_t>(entering)] = VarStatus::Basic;
    ws.basic[static_cast<std::size_t>(row)] = entering;

    try {
      ws.eta.assign_from_ftran(w, row);
      ws.eta.apply_to_matrix(ws.binv);
    } catch (const NumericalError&) {
      return finish(ws, LpStatus::NumericalTrouble);
    }
    ++ws.ops.eta_updates;
    ++ws.etas_since_refactor;
    GPUMIP_VALIDATE(check::check_basis_inverse(basis_matrix(ws), ws.binv, 1e-4,
                                               "(after dual eta update)"));
    ++ws.iterations;
    ++ws.ops.iterations;
  }
}

}  // namespace gpumip::lp
