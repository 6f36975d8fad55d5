#include "lp/interior_point.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "obs/obs.hpp"
#include "sparse/ops.hpp"
#include "sparse/sparse_cholesky.hpp"

namespace gpumip::lp {

namespace {

/// How each original variable maps into the nonnegative-form columns.
struct VarMap {
  enum class Kind { Shifted, Mirrored, Split } kind = Kind::Shifted;
  int col = -1;       // primary column
  int col_neg = -1;   // negative part (Split)
  double offset = 0;  // x = offset + x' (Shifted) or offset - x' (Mirrored)
};

/// min cᵀx, Ax = b, x >= 0 equivalent of (form, lb, ub).
struct NonnegForm {
  sparse::Csr a;
  sparse::Csc a_cols;
  linalg::Vector b, c;
  double obj_offset = 0.0;
  std::vector<VarMap> map;  // per original variable
  int orig_rows = 0;
};

NonnegForm to_nonneg(const StandardForm& form, std::span<const double> lb,
                     std::span<const double> ub) {
  const int m = form.num_rows;
  const int n = form.num_vars;
  check_arg(static_cast<int>(lb.size()) == n && static_cast<int>(ub.size()) == n,
            "interior point: bound size mismatch");
  NonnegForm out;
  out.orig_rows = m;
  out.map.resize(static_cast<std::size_t>(n));
  out.b.assign(form.b.begin(), form.b.end());

  std::vector<sparse::Triplet> triplets;
  int next_col = 0;
  int next_row = m;
  std::vector<std::pair<int, double>> ub_rows;  // (column, range) for x' + w = range

  for (int j = 0; j < n; ++j) {
    const std::size_t k = static_cast<std::size_t>(j);
    VarMap& vm = out.map[k];
    const bool has_lb = std::isfinite(lb[k]);
    const bool has_ub = std::isfinite(ub[k]);
    auto copy_column = [&](int dst_col, double scale) {
      const auto& a = form.a_cols;
      for (int e = a.col_start[k]; e < a.col_start[k + 1]; ++e) {
        triplets.push_back({a.row_index[static_cast<std::size_t>(e)], dst_col,
                            scale * a.values[static_cast<std::size_t>(e)]});
      }
    };
    if (has_lb) {
      vm.kind = VarMap::Kind::Shifted;
      vm.col = next_col++;
      vm.offset = lb[k];
      copy_column(vm.col, 1.0);
      out.c.push_back(form.c[k]);
      out.obj_offset += form.c[k] * lb[k];
      if (lb[k] != 0.0) {
        const auto& a = form.a_cols;
        for (int e = a.col_start[k]; e < a.col_start[k + 1]; ++e) {
          out.b[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(e)])] -=
              a.values[static_cast<std::size_t>(e)] * lb[k];
        }
      }
      if (has_ub) ub_rows.push_back({vm.col, ub[k] - lb[k]});
    } else if (has_ub) {
      // x = ub - x', x' >= 0.
      vm.kind = VarMap::Kind::Mirrored;
      vm.col = next_col++;
      vm.offset = ub[k];
      copy_column(vm.col, -1.0);
      out.c.push_back(-form.c[k]);
      out.obj_offset += form.c[k] * ub[k];
      if (ub[k] != 0.0) {
        const auto& a = form.a_cols;
        for (int e = a.col_start[k]; e < a.col_start[k + 1]; ++e) {
          out.b[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(e)])] -=
              a.values[static_cast<std::size_t>(e)] * ub[k];
        }
      }
    } else {
      // Free: x = x+ - x-.
      vm.kind = VarMap::Kind::Split;
      vm.col = next_col++;
      vm.col_neg = next_col++;
      copy_column(vm.col, 1.0);
      copy_column(vm.col_neg, -1.0);
      out.c.push_back(form.c[k]);
      out.c.push_back(-form.c[k]);
    }
  }
  // Upper-bound rows: x'_j + w = range.
  for (const auto& [col, range] : ub_rows) {
    const int w = next_col++;
    triplets.push_back({next_row, col, 1.0});
    triplets.push_back({next_row, w, 1.0});
    out.c.push_back(0.0);
    out.b.push_back(range);
    ++next_row;
  }
  out.a = sparse::csr_from_triplets(next_row, next_col, triplets);
  out.a_cols = sparse::csr_to_csc(out.a);
  return out;
}

double inf_norm(std::span<const double> v) {
  double worst = 0.0;
  for (double x : v) worst = std::max(worst, std::fabs(x));
  return worst;
}

/// Solves (A diag(d) Aᵀ + ridge I) out = rhs. Dense or sparse Cholesky by
/// `dense` flag. Throws NumericalError when hopeless.
linalg::Vector solve_normal_equations(const NonnegForm& nf, const linalg::Vector& d,
                                      const linalg::Vector& rhs, bool dense, LpOpStats& ops,
                                      const linalg::Vector* rhs2, linalg::Vector* out2) {
  const int m = nf.a.rows;
  // A D Aᵀ is PD whenever A has full row rank (every row owns a slack), so
  // start unregularized; escalate the ridge only on an actual breakdown. A
  // ridge scaled to max |M| would swamp the small d_j entries near
  // convergence and stall the iteration.
  if (dense) {
    linalg::Matrix mmat(m, m);
    // M = Σ_j d_j a_j a_jᵀ via the column view.
    for (int j = 0; j < nf.a.cols; ++j) {
      const auto& a = nf.a_cols;
      const double dj = d[static_cast<std::size_t>(j)];
      if (dj == 0.0) continue;
      for (int e1 = a.col_start[static_cast<std::size_t>(j)];
           e1 < a.col_start[static_cast<std::size_t>(j) + 1]; ++e1) {
        const int r1 = a.row_index[static_cast<std::size_t>(e1)];
        const double v1 = dj * a.values[static_cast<std::size_t>(e1)];
        for (int e2 = a.col_start[static_cast<std::size_t>(j)];
             e2 < a.col_start[static_cast<std::size_t>(j) + 1]; ++e2) {
          mmat(r1, a.row_index[static_cast<std::size_t>(e2)]) +=
              v1 * a.values[static_cast<std::size_t>(e2)];
        }
      }
    }
    double ridge = 0.0;
    for (int attempt = 0; attempt < 5; ++attempt) {
      try {
        linalg::DenseCholesky chol(mmat, ridge);
        ++ops.cholesky;
        if (rhs2 != nullptr && out2 != nullptr) *out2 = chol.solve(*rhs2);
        return chol.solve(rhs);
      } catch (const NumericalError&) {
        ridge = ridge == 0.0 ? 1e-12 * (1.0 + inf_norm({mmat.data(), mmat.size()}))
                             : ridge * 1e4;
      }
    }
    throw NumericalError("interior point: dense normal equations not PD");
  }
  // Sparse path.
  std::vector<sparse::Triplet> triplets;
  for (int j = 0; j < nf.a.cols; ++j) {
    const auto& a = nf.a_cols;
    const double dj = d[static_cast<std::size_t>(j)];
    if (dj == 0.0) continue;
    for (int e1 = a.col_start[static_cast<std::size_t>(j)];
         e1 < a.col_start[static_cast<std::size_t>(j) + 1]; ++e1) {
      const int r1 = a.row_index[static_cast<std::size_t>(e1)];
      const double v1 = dj * a.values[static_cast<std::size_t>(e1)];
      for (int e2 = a.col_start[static_cast<std::size_t>(j)];
           e2 < a.col_start[static_cast<std::size_t>(j) + 1]; ++e2) {
        triplets.push_back({r1, a.row_index[static_cast<std::size_t>(e2)],
                            v1 * a.values[static_cast<std::size_t>(e2)]});
      }
    }
  }
  double max_entry = 0.0;
  for (const auto& t : triplets) max_entry = std::max(max_entry, std::fabs(t.value));
  double ridge = 0.0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      std::vector<sparse::Triplet> with_ridge = triplets;
      if (ridge > 0.0) {
        for (int i = 0; i < m; ++i) with_ridge.push_back({i, i, ridge});
      }
      sparse::SparseCholesky chol(sparse::csc_from_triplets(m, m, with_ridge));
      ++ops.cholesky;
      if (rhs2 != nullptr && out2 != nullptr) *out2 = chol.solve(*rhs2);
      return chol.solve(rhs);
    } catch (const NumericalError&) {
      ridge = ridge == 0.0 ? 1e-12 * (1.0 + max_entry) : ridge * 1e4;
    }
  }
  throw NumericalError("interior point: sparse normal equations not PD");
}

}  // namespace

InteriorPointSolver::InteriorPointSolver(const StandardForm& form, InteriorPointOptions options)
    : form_(&form), options_(options) {}

LpResult InteriorPointSolver::solve(std::span<const double> lb, std::span<const double> ub) {
  GPUMIP_OBS_COUNT_L("gpumip.lp.solves", {"method", "interior_point"});
  GPUMIP_OBS_SPAN_L("gpumip.lp.solve.seconds", {"method", "interior_point"});
  const NonnegForm nf = to_nonneg(*form_, lb, ub);
  const int m = nf.a.rows;
  const int n = nf.a.cols;

  LpResult result;
  result.ops.m = m;
  result.ops.n = n;
  result.ops.nnz = nf.a.nnz();

  const bool dense = options_.force_dense ||
                     (!options_.force_sparse && nf.a.density() >= options_.dense_threshold);

  auto matvec = [&](const linalg::Vector& x) {  // A x
    linalg::Vector y(static_cast<std::size_t>(m), 0.0);
    sparse::spmv(1.0, nf.a, x, 0.0, y);
    ++result.ops.matvec_n;
    return y;
  };
  auto matvec_t = [&](const linalg::Vector& y) {  // Aᵀ y
    linalg::Vector x(static_cast<std::size_t>(n), 0.0);
    sparse::spmv_t(1.0, nf.a, y, 0.0, x);
    ++result.ops.matvec_n;
    return x;
  };

  // --- Mehrotra starting point ---
  linalg::Vector x(static_cast<std::size_t>(n), 1.0);
  linalg::Vector s(static_cast<std::size_t>(n), 1.0);
  linalg::Vector y(static_cast<std::size_t>(m), 0.0);
  try {
    linalg::Vector ones_d(static_cast<std::size_t>(n), 1.0);
    const linalg::Vector ac = matvec(nf.c);
    linalg::Vector yhat;
    const linalg::Vector xb =
        solve_normal_equations(nf, ones_d, nf.b, dense, result.ops, &ac, &yhat);
    linalg::Vector xhat = matvec_t(xb);
    linalg::Vector shat = nf.c;
    const linalg::Vector aty = matvec_t(yhat);
    for (int j = 0; j < n; ++j) shat[static_cast<std::size_t>(j)] -= aty[static_cast<std::size_t>(j)];
    double dx = 0.0, ds = 0.0;
    for (double v : xhat) dx = std::max(dx, -1.5 * v);
    for (double v : shat) ds = std::max(ds, -1.5 * v);
    for (double& v : xhat) v += dx;
    for (double& v : shat) v += ds;
    double xs = 0.0, sum_x = 0.0, sum_s = 0.0;
    for (int j = 0; j < n; ++j) {
      xs += xhat[static_cast<std::size_t>(j)] * shat[static_cast<std::size_t>(j)];
      sum_x += xhat[static_cast<std::size_t>(j)];
      sum_s += shat[static_cast<std::size_t>(j)];
    }
    if (sum_s > 1e-12 && sum_x > 1e-12 && xs > 0) {
      const double dxp = 0.5 * xs / sum_s;
      const double dsp = 0.5 * xs / sum_x;
      for (int j = 0; j < n; ++j) {
        x[static_cast<std::size_t>(j)] = xhat[static_cast<std::size_t>(j)] + dxp;
        s[static_cast<std::size_t>(j)] = shat[static_cast<std::size_t>(j)] + dsp;
      }
      y = yhat;
    }
  } catch (const NumericalError&) {
    // keep the all-ones start
  }
  for (int j = 0; j < n; ++j) {
    x[static_cast<std::size_t>(j)] = std::max(x[static_cast<std::size_t>(j)], 1e-2);
    s[static_cast<std::size_t>(j)] = std::max(s[static_cast<std::size_t>(j)], 1e-2);
  }

  const double bnorm = 1.0 + inf_norm(nf.b);
  const double cnorm = 1.0 + inf_norm(nf.c);
  LpStatus status = LpStatus::IterationLimit;
  double best_mu = kInf;
  int stalled = 0;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    ++result.ops.iterations;
    // Residuals.
    linalg::Vector rb = nf.b;
    {
      const linalg::Vector ax = matvec(x);
      for (int i = 0; i < m; ++i) rb[static_cast<std::size_t>(i)] -= ax[static_cast<std::size_t>(i)];
    }
    linalg::Vector rc = nf.c;
    {
      const linalg::Vector aty = matvec_t(y);
      for (int j = 0; j < n; ++j) {
        rc[static_cast<std::size_t>(j)] -= aty[static_cast<std::size_t>(j)] + s[static_cast<std::size_t>(j)];
      }
    }
    double mu = 0.0;
    for (int j = 0; j < n; ++j) mu += x[static_cast<std::size_t>(j)] * s[static_cast<std::size_t>(j)];
    mu /= n;

    double cx = 0.0;
    for (int j = 0; j < n; ++j) cx += nf.c[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
    const double rel_gap = mu / (1.0 + std::fabs(cx));
    if (inf_norm(rb) / bnorm < options_.tol && inf_norm(rc) / cnorm < options_.tol &&
        rel_gap < options_.tol) {
      status = LpStatus::Optimal;
      break;
    }
    if (!std::isfinite(mu) || mu > 1e14) {
      status = LpStatus::NumericalTrouble;
      break;
    }
    // Stall detection: when the duality gap stops improving at the noise
    // floor but the iterate already satisfies a loose tolerance, accept it
    // (a degenerate optimal face — common on synthetic LPs).
    stalled = mu > 0.95 * best_mu ? stalled + 1 : 0;
    best_mu = std::min(best_mu, mu);
    if (stalled >= 8 && inf_norm(rb) / bnorm < 1e3 * options_.tol &&
        inf_norm(rc) / cnorm < 1e3 * options_.tol && rel_gap < 1e4 * options_.tol) {
      status = LpStatus::Optimal;
      break;
    }

    linalg::Vector d(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      d[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j)] / s[static_cast<std::size_t>(j)];
    }

    auto assemble_rhs = [&](const linalg::Vector& rmu) {
      // rhs_y = rb + A (D rc - S⁻¹ rmu)
      linalg::Vector tmp(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        const std::size_t k = static_cast<std::size_t>(j);
        tmp[k] = d[k] * rc[k] - rmu[k] / s[k];
      }
      linalg::Vector rhs = matvec(tmp);
      for (int i = 0; i < m; ++i) rhs[static_cast<std::size_t>(i)] += rb[static_cast<std::size_t>(i)];
      return rhs;
    };
    auto recover_steps = [&](const linalg::Vector& dy, const linalg::Vector& rmu,
                             linalg::Vector& dx_out, linalg::Vector& ds_out) {
      const linalg::Vector atdy = matvec_t(dy);
      dx_out.resize(static_cast<std::size_t>(n));
      ds_out.resize(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        const std::size_t k = static_cast<std::size_t>(j);
        ds_out[k] = rc[k] - atdy[k];
        dx_out[k] = (rmu[k] - x[k] * ds_out[k]) / s[k];
      }
    };
    auto step_length = [&](const linalg::Vector& v, const linalg::Vector& dv) {
      double alpha = 1.0 / options_.step_scale;
      for (int j = 0; j < n; ++j) {
        const std::size_t k = static_cast<std::size_t>(j);
        if (dv[k] < 0.0) alpha = std::min(alpha, -v[k] / dv[k]);
      }
      return std::min(1.0, options_.step_scale * alpha);
    };

    try {
      // Affine (predictor).
      linalg::Vector rmu_aff(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        const std::size_t k = static_cast<std::size_t>(j);
        rmu_aff[k] = -x[k] * s[k];
      }
      const linalg::Vector rhs_aff = assemble_rhs(rmu_aff);
      linalg::Vector dy_aff =
          solve_normal_equations(nf, d, rhs_aff, dense, result.ops, nullptr, nullptr);
      linalg::Vector dx_aff, ds_aff;
      recover_steps(dy_aff, rmu_aff, dx_aff, ds_aff);
      const double ap_aff = step_length(x, dx_aff);
      const double ad_aff = step_length(s, ds_aff);
      double mu_aff = 0.0;
      for (int j = 0; j < n; ++j) {
        const std::size_t k = static_cast<std::size_t>(j);
        mu_aff += (x[k] + ap_aff * dx_aff[k]) * (s[k] + ad_aff * ds_aff[k]);
      }
      mu_aff /= n;
      const double sigma = std::pow(std::clamp(mu_aff / mu, 0.0, 1.0), 3.0);

      // Corrector (combined direction).
      linalg::Vector rmu(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        const std::size_t k = static_cast<std::size_t>(j);
        rmu[k] = -x[k] * s[k] + sigma * mu - dx_aff[k] * ds_aff[k];
      }
      const linalg::Vector rhs = assemble_rhs(rmu);
      linalg::Vector dy = solve_normal_equations(nf, d, rhs, dense, result.ops, nullptr, nullptr);
      linalg::Vector dx, ds;
      recover_steps(dy, rmu, dx, ds);
      const double ap = step_length(x, dx);
      const double ad = step_length(s, ds);
      for (int j = 0; j < n; ++j) {
        const std::size_t k = static_cast<std::size_t>(j);
        x[k] += ap * dx[k];
        s[k] += ad * ds[k];
      }
      for (int i = 0; i < m; ++i) {
        y[static_cast<std::size_t>(i)] += ad * dy[static_cast<std::size_t>(i)];
      }
    } catch (const NumericalError&) {
      status = LpStatus::NumericalTrouble;
      break;
    }
  }

  // Map back to standard-form variables.
  result.status = status;
  result.iterations = result.ops.iterations;
  result.x.assign(static_cast<std::size_t>(form_->num_vars), 0.0);
  for (int j = 0; j < form_->num_vars; ++j) {
    const VarMap& vm = nf.map[static_cast<std::size_t>(j)];
    double value = 0.0;
    switch (vm.kind) {
      case VarMap::Kind::Shifted:
        value = vm.offset + x[static_cast<std::size_t>(vm.col)];
        break;
      case VarMap::Kind::Mirrored:
        value = vm.offset - x[static_cast<std::size_t>(vm.col)];
        break;
      case VarMap::Kind::Split:
        value = x[static_cast<std::size_t>(vm.col)] - x[static_cast<std::size_t>(vm.col_neg)];
        break;
    }
    result.x[static_cast<std::size_t>(j)] = value;
  }
  double obj = 0.0;
  for (int j = 0; j < form_->num_vars; ++j) {
    obj += form_->c[static_cast<std::size_t>(j)] * result.x[static_cast<std::size_t>(j)];
  }
  result.objective = obj;
  result.duals.assign(y.begin(), y.begin() + form_->num_rows);
  result.reduced_costs.assign(static_cast<std::size_t>(form_->num_vars), 0.0);
  for (int j = 0; j < form_->num_vars; ++j) {
    result.reduced_costs[static_cast<std::size_t>(j)] =
        form_->c[static_cast<std::size_t>(j)] -
        sparse::column_dot(form_->a_cols, j, result.duals);
  }
  publish_op_stats(result.ops);
  return result;
}

}  // namespace gpumip::lp
