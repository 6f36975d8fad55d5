#include "lp/pdhg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sparse/ops.hpp"

namespace gpumip::lp {

// kInf comes from lp/model.hpp (via standard_form.hpp).

namespace {

/// s in τ_j = s/‖A_{·j}‖₁, σ_i = s/‖A_{i·}‖₁ (convergent for s ≤ 1).
constexpr double kStepScale = 0.95;
/// Relative tolerance of the Farkas ray checks.
constexpr double kCertificateTol = 1e-6;

}  // namespace

/// All solve-lifetime buffers, allocated once in solve() so the iteration
/// loop (the gpumip-lint R6 root) stays allocation-free.
struct PdhgSolver::Workspace {
  std::span<const double> lb, ub;

  linalg::Vector x, y;        ///< current iterates
  linalg::Vector at_y;        ///< n scratch: Aᵀy, extrapolated primal, rays
  linalg::Vector ax;          ///< m scratch: A·(candidate / ray)
  linalg::Vector dx;          ///< n scratch: primal drift ray
  linalg::Vector dy;          ///< m scratch: dual drift ray
  linalg::Vector x_sum, y_sum;  ///< running iterate sums since last restart
  linalg::Vector x_avg, y_avg;  ///< average-iterate candidate
  linalg::Vector x_anchor, y_anchor;  ///< iterates at the last restart (drift base)
  linalg::Vector best_x, best_y;      ///< best-scored candidate seen so far
  linalg::Vector tau, sigma;          ///< per-column / per-row step sizes

  double b_scale = 1.0;  ///< 1 + ‖b‖_inf
  double c_scale = 1.0;  ///< 1 + ‖c‖_inf
  long iteration = 0;
  long since_restart = 0;
  double last_restart_score = kInf;
  double best_score = kInf;
  double best_objective = 0.0;
  bool warm = false;
  LpOpStats ops;
};

PdhgSolver::PdhgSolver(const StandardForm& form, PdhgOptions options)
    : form_(&form), options_(options) {}

void PdhgSolver::init_workspace(Workspace& ws, std::span<const double> lb,
                                std::span<const double> ub, const PdhgWarmStart* warm) const {
  const StandardForm& form = *form_;
  const int m = form.num_rows;
  const int n = form.num_vars;
  check_arg(static_cast<int>(lb.size()) == n && static_cast<int>(ub.size()) == n,
            "solve: bound vector size mismatch");
  for (int j = 0; j < n; ++j) {
    if (!(lb[j] <= ub[j])) check_arg(false, "solve: lb > ub for variable " + std::to_string(j));
  }
  ws.lb = lb;
  ws.ub = ub;

  ws.x.assign(n, 0.0);
  ws.y.assign(m, 0.0);
  ws.at_y.assign(n, 0.0);
  ws.ax.assign(m, 0.0);
  ws.dx.assign(n, 0.0);
  ws.dy.assign(m, 0.0);
  ws.x_sum.assign(n, 0.0);
  ws.y_sum.assign(m, 0.0);
  ws.x_avg.assign(n, 0.0);
  ws.y_avg.assign(m, 0.0);
  ws.tau.assign(n, 0.0);
  ws.sigma.assign(m, 0.0);

  // Diagonal preconditioning from the matrix 1-norms (Pock–Chambolle α=1):
  // τ_j = s/‖A_{·j}‖₁, σ_i = s/‖A_{i·}‖₁ is convergent for s ≤ 1. Empty
  // rows/columns are uncoupled — any positive step works there, and the
  // drift-ray certificates below turn their unbounded walks into verdicts.
  const sparse::Csr& a = form.a_rows;
  for (int i = 0; i < m; ++i) {
    double row_norm = 0.0;
    for (int k = a.row_start[i]; k < a.row_start[i + 1]; ++k) {
      const double mag = std::abs(a.values[k]);
      row_norm += mag;
      ws.tau[a.col_index[k]] += mag;
    }
    ws.sigma[i] = kStepScale / (row_norm > 0.0 ? row_norm : 1.0);
  }
  for (int j = 0; j < n; ++j) {
    ws.tau[j] = kStepScale / (ws.tau[j] > 0.0 ? ws.tau[j] : 1.0);
  }

  ws.b_scale = 1.0;
  for (double v : form.b) ws.b_scale = std::max(ws.b_scale, 1.0 + std::abs(v));
  ws.c_scale = 1.0;
  for (double v : form.c) ws.c_scale = std::max(ws.c_scale, 1.0 + std::abs(v));

  // Starting point: the parent's iterates when provided (projected into the
  // child's bounds — branching tightened them), else the projection of 0.
  const bool warm_x = warm != nullptr && static_cast<int>(warm->x.size()) == n;
  const bool warm_y = warm != nullptr && static_cast<int>(warm->y.size()) == m;
  ws.warm = warm_x || warm_y;
  for (int j = 0; j < n; ++j) {
    const double seed = warm_x ? warm->x[j] : 0.0;
    ws.x[j] = std::min(std::max(seed, lb[j]), ub[j]);
  }
  if (warm_y) {
    std::copy(warm->y.begin(), warm->y.end(), ws.y.begin());
  }

  ws.x_anchor = ws.x;
  ws.y_anchor = ws.y;
  ws.best_x = ws.x;
  ws.best_y = ws.y;

  ws.ops.m = m;
  ws.ops.n = n;
  ws.ops.nnz = static_cast<long>(a.values.size());

  // Score the starting point so the first restart decision has a baseline
  // and an IterationLimit exit always has a candidate to report.
  ws.best_score = evaluate_kkt(ws, ws.x, ws.y, &ws.best_objective);
  ws.last_restart_score = ws.best_score;
}

double PdhgSolver::evaluate_kkt(Workspace& ws, std::span<const double> x,
                                std::span<const double> y, double* objective) const {
  const StandardForm& form = *form_;
  const int m = form.num_rows;
  const int n = form.num_vars;

  // Primal residual ‖Ax − b‖_inf (x is box-feasible by projection).
  sparse::spmv(1.0, form.a_rows, x, 0.0, ws.ax);
  double res_p = 0.0;
  for (int i = 0; i < m; ++i) res_p = std::max(res_p, std::abs(ws.ax[i] - form.b[i]));

  // Dual objective with box bounds: d = bᵀy + Σ_j inf over [l,u] of r_j x_j
  // with r = c − Aᵀy. Where the needed bound is infinite the term is
  // clipped and the clipped magnitude IS the dual infeasibility.
  sparse::spmv_t(1.0, form.a_cols, y, 0.0, ws.at_y);
  double dual_obj = 0.0;
  for (int i = 0; i < m; ++i) dual_obj += form.b[i] * y[i];
  double res_d = 0.0;
  double primal_obj = 0.0;
  for (int j = 0; j < n; ++j) {
    primal_obj += form.c[j] * x[j];
    const double r = form.c[j] - ws.at_y[j];
    if (r > 0.0) {
      if (ws.lb[j] > -kInf) {
        dual_obj += ws.lb[j] * r;
      } else {
        res_d = std::max(res_d, r);
      }
    } else if (r < 0.0) {
      if (ws.ub[j] < kInf) {
        dual_obj += ws.ub[j] * r;
      } else {
        res_d = std::max(res_d, -r);
      }
    }
  }
  const double gap =
      std::abs(primal_obj - dual_obj) / (1.0 + std::abs(primal_obj) + std::abs(dual_obj));

  ws.ops.spmv += 2;
  ws.ops.matvec_n += 2;
  if (objective != nullptr) *objective = primal_obj;
  const double score = std::max({res_p / ws.b_scale, res_d / ws.c_scale, gap});
  return std::isfinite(score) ? score : kInf;
}

std::optional<LpStatus> PdhgSolver::check_certificates(Workspace& ws) const {
  // The iterate drift since the last restart approximates the divergence
  // ray of an infeasible/unbounded instance. Wait until the direction has
  // had time to settle, then test it as an approximate Farkas certificate.
  if (ws.since_restart < 100) return std::nullopt;
  const StandardForm& form = *form_;
  const int m = form.num_rows;
  const int n = form.num_vars;
  const double ctol = kCertificateTol;

  // Primal ray dx = x − x_anchor (normalized): if A·dx ≈ 0, dx respects the
  // recession cone of the box, and cᵀdx < 0, the LP is unbounded below.
  double norm = 0.0;
  for (int j = 0; j < n; ++j) {
    ws.dx[j] = ws.x[j] - ws.x_anchor[j];
    norm = std::max(norm, std::abs(ws.dx[j]));
  }
  if (norm > 1e-3 * static_cast<double>(ws.since_restart)) {
    bool in_cone = true;
    double obj_dir = 0.0;
    for (int j = 0; j < n; ++j) {
      ws.dx[j] /= norm;
      obj_dir += form.c[j] * ws.dx[j];
      if (ws.dx[j] > ctol && ws.ub[j] < kInf) in_cone = false;
      if (ws.dx[j] < -ctol && ws.lb[j] > -kInf) in_cone = false;
    }
    sparse::spmv(1.0, form.a_rows, ws.dx, 0.0, ws.ax);
    double ray_res = 0.0;
    for (int i = 0; i < m; ++i) ray_res = std::max(ray_res, std::abs(ws.ax[i]));
    ws.ops.spmv += 1;
    ws.ops.matvec_n += 1;
    if (in_cone && ray_res <= ctol * ws.b_scale && obj_dir < -ctol) {
      return LpStatus::Unbounded;
    }
  }

  // Dual ray dy = y − y_anchor (normalized): with r = Aᵀdy, the instance is
  // infeasible when bᵀdy − sup_{l≤x≤u} rᵀx > 0 (Farkas) — the sup must be
  // finite, so r may only load on the finite bound sides.
  norm = 0.0;
  for (int i = 0; i < m; ++i) {
    ws.dy[i] = ws.y[i] - ws.y_anchor[i];
    norm = std::max(norm, std::abs(ws.dy[i]));
  }
  if (norm > 1e-3 * static_cast<double>(ws.since_restart)) {
    double value = 0.0;
    for (int i = 0; i < m; ++i) {
      ws.dy[i] /= norm;
      value += form.b[i] * ws.dy[i];
    }
    sparse::spmv_t(1.0, form.a_cols, ws.dy, 0.0, ws.at_y);
    bool bounded = true;
    for (int j = 0; j < n; ++j) {
      const double r = ws.at_y[j];
      if (r > ctol) {
        if (ws.ub[j] < kInf) {
          value -= r * ws.ub[j];
        } else {
          bounded = false;
        }
      } else if (r < -ctol) {
        if (ws.lb[j] > -kInf) {
          value -= r * ws.lb[j];
        } else {
          bounded = false;
        }
      }
    }
    ws.ops.spmv += 1;
    ws.ops.matvec_n += 1;
    if (bounded && value > ctol * ws.b_scale) {
      return LpStatus::Infeasible;
    }
  }
  return std::nullopt;
}

LpStatus PdhgSolver::iterate_loop(Workspace& ws) const {
  const StandardForm& form = *form_;
  const int m = form.num_rows;
  const int n = form.num_vars;

  // One iteration is one column pass and one row pass, the shape of the
  // fused device kernel (docs/METHODS.md, "Fused waves").
  while (ws.iteration < options_.max_iterations) {
    // Column pass: x⁺_j = proj_[l,u](x_j − τ_j (c_j − (Aᵀy)_j)), then the
    // extrapolation 2x⁺_j − x_j into the Aᵀy buffer. The gather starts from
    // spmv_t's β·at_y_j with β = 0, not from 0.0, so a column with no
    // nonzero y_i keeps the sign of zero the results are pinned with
    // (Pdhg.SeededSolvesAreBitExact).
    for (int j = 0; j < n; ++j) {
      const double aty = sparse::gather_column(1.0, form.a_cols, j, ws.y, 0.0 * ws.at_y[j]);
      const double step = ws.x[j] - ws.tau[j] * (form.c[j] - aty);
      const double next = std::min(std::max(step, ws.lb[j]), ws.ub[j]);
      ws.at_y[j] = 2.0 * next - ws.x[j];
      ws.x[j] = next;
      ws.x_sum[j] += next;
    }
    // Row pass: y⁺_i = y_i + σ_i (b_i − (A(2x⁺ − x))_i).
    for (int i = 0; i < m; ++i) {
      ws.y[i] += ws.sigma[i] * (form.b[i] - sparse::row_dot(form.a_rows, i, ws.at_y));
      ws.y_sum[i] += ws.y[i];
    }
    ++ws.iteration;
    ++ws.since_restart;
    ws.ops.iterations += 1;
    ws.ops.spmv += 2;
    ws.ops.matvec_n += 4;

    if (ws.since_restart % kPdhgCheckInterval != 0) continue;

    // Score both candidates: the last iterate and the running average (the
    // ergodic sequence — PDHG's average converges faster than its tail).
    const double inv = 1.0 / static_cast<double>(ws.since_restart);
    for (int j = 0; j < n; ++j) ws.x_avg[j] = ws.x_sum[j] * inv;
    for (int i = 0; i < m; ++i) ws.y_avg[i] = ws.y_sum[i] * inv;
    double obj_cur = 0.0;
    double obj_avg = 0.0;
    const double score_cur = evaluate_kkt(ws, ws.x, ws.y, &obj_cur);
    const double score_avg = evaluate_kkt(ws, ws.x_avg, ws.y_avg, &obj_avg);
    const bool avg_better = score_avg < score_cur;
    const double score = avg_better ? score_avg : score_cur;
    const linalg::Vector& cand_x = avg_better ? ws.x_avg : ws.x;
    const linalg::Vector& cand_y = avg_better ? ws.y_avg : ws.y;

    if (score < ws.best_score) {
      ws.best_score = score;
      ws.best_objective = avg_better ? obj_avg : obj_cur;
      std::copy(cand_x.begin(), cand_x.end(), ws.best_x.begin());
      std::copy(cand_y.begin(), cand_y.end(), ws.best_y.begin());
    }
    if (score <= options_.tol) return LpStatus::Optimal;

    if (const auto verdict = check_certificates(ws)) return *verdict;

    // Restart to the better candidate once it has decayed enough relative
    // to the last restart point, or when a restart is overdue.
    if (score <= options_.restart_factor * ws.last_restart_score ||
        ws.since_restart >= options_.restart_max_interval) {
      if (&cand_x != &ws.x) std::copy(cand_x.begin(), cand_x.end(), ws.x.begin());
      if (&cand_y != &ws.y) std::copy(cand_y.begin(), cand_y.end(), ws.y.begin());
      std::copy(ws.x.begin(), ws.x.end(), ws.x_anchor.begin());
      std::copy(ws.y.begin(), ws.y.end(), ws.y_anchor.begin());
      std::fill(ws.x_sum.begin(), ws.x_sum.end(), 0.0);
      std::fill(ws.y_sum.begin(), ws.y_sum.end(), 0.0);
      ws.since_restart = 0;
      ws.last_restart_score = score;
      ws.ops.restarts += 1;
      GPUMIP_OBS_COUNT("gpumip.lp.pdhg.restarts");
      GPUMIP_TRACE_INSTANT("gpumip.lp.pdhg.restart", ws.iteration);
    }
  }
  return LpStatus::IterationLimit;
}

LpResult PdhgSolver::finish(Workspace& ws, LpStatus status) const {
  const StandardForm& form = *form_;
  LpResult result;
  result.status = status;
  result.objective = ws.best_objective;
  result.x = std::move(ws.best_x);
  result.duals = std::move(ws.best_y);
  result.reduced_costs.assign(form.num_vars, 0.0);
  sparse::spmv_t(1.0, form.a_cols, result.duals, 0.0, ws.at_y);
  for (int j = 0; j < form.num_vars; ++j) {
    result.reduced_costs[j] = form.c[j] - ws.at_y[j];
  }
  ws.ops.spmv += 1;
  result.iterations = ws.iteration;
  result.ops = ws.ops;
  // No basis: PDHG is basis-free; result.basis stays empty and consumers
  // that need one (cut separators) must not be routed here (path_chooser).
  GPUMIP_OBS_COUNT_L("gpumip.lp.solves", {"method", "pdhg"});
  // Added once per solve, not per iteration: one process-wide atomic bumped
  // on every iteration from every batch fan-out thread makes the threads
  // contend for its cache line.
  if (ws.iteration > 0) GPUMIP_OBS_ADD("gpumip.lp.pdhg.iterations", ws.iteration);
  if (ws.warm) GPUMIP_OBS_COUNT("gpumip.lp.pdhg.warm_starts");
  publish_op_stats(result.ops);
  return result;
}

LpResult PdhgSolver::solve(std::span<const double> lb, std::span<const double> ub,
                           const PdhgWarmStart* warm) {
  GPUMIP_OBS_SPAN_L("gpumip.lp.solve.seconds", {"method", "pdhg"});
  return run_pdhg(lb, ub, warm);
}

LpResult PdhgSolver::run_pdhg(std::span<const double> lb, std::span<const double> ub,
                              const PdhgWarmStart* warm) {
  Workspace ws;
  init_workspace(ws, lb, ub, warm);
  const LpStatus status = iterate_loop(ws);
  return finish(ws, status);
}

}  // namespace gpumip::lp
