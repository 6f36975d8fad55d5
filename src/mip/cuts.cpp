#include "mip/cuts.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "sparse/ops.hpp"

namespace gpumip::mip {

double Cut::activity(std::span<const double> x) const {
  double sum = 0.0;
  for (const auto& [j, v] : terms) sum += v * x[static_cast<std::size_t>(j)];
  return sum;
}

double Cut::violation(std::span<const double> x) const {
  const double a = activity(x);
  double viol = 0.0;
  if (std::isfinite(lb)) viol = std::max(viol, lb - a);
  if (std::isfinite(ub)) viol = std::max(viol, a - ub);
  return viol;
}

namespace {

/// Numerics guard: a cut with a larger coefficient magnitude is rejected.
constexpr double kMaxCoefficient = 1e6;

double frac(double v) { return v - std::floor(v); }

/// Rebuilds the basis matrix of `result` and returns its LU factorization.
linalg::DenseLU factor_basis(const lp::StandardForm& form, const lp::Basis& basis) {
  const int m = form.num_rows;
  linalg::Matrix b(m, m);
  for (int i = 0; i < m; ++i) {
    const int v = basis.basic[static_cast<std::size_t>(i)];
    const auto& a = form.a_cols;
    for (int e = a.col_start[static_cast<std::size_t>(v)];
         e < a.col_start[static_cast<std::size_t>(v) + 1]; ++e) {
      b(a.row_index[static_cast<std::size_t>(e)], i) = a.values[static_cast<std::size_t>(e)];
    }
  }
  return linalg::DenseLU(b);
}

}  // namespace

std::vector<Cut> gomory_cuts(const MipModel& model, const lp::StandardForm& form,
                             const lp::LpResult& result, const CutOptions& options) {
  std::vector<Cut> cuts;
  if (result.status != lp::LpStatus::Optimal || result.basis.empty()) return cuts;
  const int m = form.num_rows;
  const int n = form.num_vars;
  const int n_struct = form.num_struct;

  // Reject bases that still contain artificials (finish() purges in the
  // normal case; be safe).
  for (int v : result.basis.basic) {
    if (v < 0 || v >= n) return cuts;
  }

  linalg::DenseLU lu;
  try {
    lu = factor_basis(form, result.basis);
  } catch (const NumericalError&) {
    return cuts;
  }

  // Integer flags in standard-form space (slacks are continuous).
  auto is_int_var = [&](int v) {
    return v < n_struct && model.is_integer(v);
  };

  for (int i = 0; i < m && static_cast<int>(cuts.size()) < options.max_cuts; ++i) {
    const int bv = result.basis.basic[static_cast<std::size_t>(i)];
    if (!is_int_var(bv)) continue;
    const double xb = result.x[static_cast<std::size_t>(bv)];
    const double f0 = frac(xb);
    if (f0 < 1e-4 || f0 > 1.0 - 1e-4) continue;

    // Tableau row i over nonbasic variables: rho = B⁻ᵀ e_i.
    linalg::Vector e(static_cast<std::size_t>(m), 0.0);
    e[static_cast<std::size_t>(i)] = 1.0;
    linalg::Vector rho = lu.solve_transpose(e);

    // GMI in the shifted nonbasic space x'_j >= 0:
    //   x_B + Σ ᾱ_j x'_j = x*_B  with ᾱ_j = ±alpha_j by bound side.
    Cut cut;
    cut.lb = f0;
    double shift_constant = 0.0;  // accumulates Σ g_j · (shift terms)
    bool usable = true;
    double max_coef = 0.0;
    for (int v = 0; v < n && usable; ++v) {
      const std::size_t k = static_cast<std::size_t>(v);
      const lp::VarStatus st = result.basis.status.size() > k
                                   ? result.basis.status[k]
                                   : lp::VarStatus::AtLower;
      if (st == lp::VarStatus::Basic) continue;
      const double alpha = sparse::column_dot(form.a_cols, v, rho);
      if (std::fabs(alpha) < 1e-12) continue;
      double abar;
      double bound;
      bool at_lower;
      if (st == lp::VarStatus::AtLower) {
        bound = form.lb[k];
        abar = alpha;
        at_lower = true;
      } else if (st == lp::VarStatus::AtUpper) {
        bound = form.ub[k];
        abar = -alpha;
        at_lower = false;
      } else {
        usable = false;  // free nonbasic with nonzero tableau entry
        break;
      }
      if (!std::isfinite(bound)) {
        usable = false;
        break;
      }
      double g;
      if (is_int_var(v) && std::fabs(bound - std::round(bound)) < 1e-9) {
        const double fj = frac(abar);
        g = fj <= f0 ? fj : f0 * (1.0 - fj) / (1.0 - f0);
      } else {
        g = abar >= 0.0 ? abar : -f0 * abar / (1.0 - f0);
      }
      if (g == 0.0) continue;
      max_coef = std::max(max_coef, std::fabs(g));
      // g · x'_v with x'_v = (x_v - lb) or (ub - x_v). Slack variables get
      // substituted out below; structural variables contribute directly.
      const double sign = at_lower ? 1.0 : -1.0;
      shift_constant += at_lower ? g * bound : -g * bound;  // move to rhs later
      if (v < n_struct) {
        cut.terms.push_back({v, sign * g});
      } else {
        // Slack of some row r: a_r·x + σ s = b_r  =>  s = σ (b_r - a_r·x).
        int row = -1;
        for (int r = 0; r < m; ++r) {
          if (form.slack_of_row[static_cast<std::size_t>(r)] == v) {
            row = r;
            break;
          }
        }
        check_internal(row >= 0, "slack variable without a row");
        // Coefficient of the slack in its row (±1).
        double sigma = 0.0;
        const auto& a = form.a_cols;
        for (int eidx = a.col_start[k]; eidx < a.col_start[k + 1]; ++eidx) {
          if (a.row_index[static_cast<std::size_t>(eidx)] == row) {
            sigma = a.values[static_cast<std::size_t>(eidx)];
          }
        }
        // term: sign*g*s = sign*g*sigma*(b_r - a_r·x_struct)
        const double coef = sign * g * sigma;
        shift_constant -= coef * form.b[static_cast<std::size_t>(row)];
        // subtract coef * a_r·x: walk row r of the ORIGINAL model columns.
        const auto& ar = form.a_rows;
        for (int eidx = ar.row_start[static_cast<std::size_t>(row)];
             eidx < ar.row_start[static_cast<std::size_t>(row) + 1]; ++eidx) {
          const int col = ar.col_index[static_cast<std::size_t>(eidx)];
          if (col >= n_struct) continue;  // the slack itself
          cut.terms.push_back({col, -coef * ar.values[static_cast<std::size_t>(eidx)]});
        }
      }
    }
    if (!usable || max_coef > kMaxCoefficient) continue;
    // Merge duplicate terms.
    std::sort(cut.terms.begin(), cut.terms.end());
    std::vector<lp::Term> merged;
    for (const auto& t : cut.terms) {
      if (!merged.empty() && merged.back().first == t.first) {
        merged.back().second += t.second;
      } else {
        merged.push_back(t);
      }
    }
    std::erase_if(merged, [](const lp::Term& t) { return std::fabs(t.second) < 1e-11; });
    cut.terms = std::move(merged);
    // Σ g x' >= f0  with Σ g x' = Σ terms·x - shift-part. The shift part
    // accumulated above: Σ_L g·lb - Σ_U g·ub (x' = ±(x - bound)), and slack
    // substitution constants; so terms·x >= f0 + shift_constant.
    cut.lb = f0 + shift_constant;
    cut.ub = lp::kInf;
    if (cut.terms.empty()) continue;
    if (cut.violation(result.x) < options.min_violation) continue;
    cuts.push_back(std::move(cut));
  }
  GPUMIP_OBS_ADD("gpumip.mip.cuts.gomory", static_cast<std::uint64_t>(cuts.size()));
  return cuts;
}

std::vector<Cut> cover_cuts(const MipModel& model, std::span<const double> x,
                            const CutOptions& options) {
  std::vector<Cut> cuts;
  const sparse::Csr a = model.lp().matrix();
  for (int r = 0; r < model.num_rows() && static_cast<int>(cuts.size()) < options.max_cuts; ++r) {
    const auto& row = model.lp().row(r);
    if (!std::isfinite(row.ub)) continue;
    // Knapsack shape: all entries positive, all variables binary.
    bool knapsack = true;
    std::vector<std::pair<int, double>> items;  // (col, weight)
    for (int k = a.row_start[static_cast<std::size_t>(r)];
         k < a.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      const int j = a.col_index[static_cast<std::size_t>(k)];
      const double w = a.values[static_cast<std::size_t>(k)];
      const auto& col = model.lp().col(j);
      if (w <= 0 || !model.is_integer(j) || col.lb != 0.0 || col.ub != 1.0) {
        knapsack = false;
        break;
      }
      items.push_back({j, w});
    }
    if (!knapsack || items.size() < 2) continue;
    // Greedy cover: take items by descending LP value until weight > ub.
    std::sort(items.begin(), items.end(), [&](const auto& p, const auto& q) {
      return x[static_cast<std::size_t>(p.first)] > x[static_cast<std::size_t>(q.first)];
    });
    double weight = 0.0;
    std::vector<int> cover;
    for (const auto& [j, w] : items) {
      cover.push_back(j);
      weight += w;
      if (weight > row.ub + 1e-9) break;
    }
    if (weight <= row.ub + 1e-9) continue;  // no cover
    // Cut: Σ_{j in C} x_j <= |C| - 1.
    Cut cut;
    for (int j : cover) cut.terms.push_back({j, 1.0});
    cut.ub = static_cast<double>(cover.size()) - 1.0;
    if (cut.violation(x) < options.min_violation) continue;
    cuts.push_back(std::move(cut));
  }
  GPUMIP_OBS_ADD("gpumip.mip.cuts.cover", static_cast<std::uint64_t>(cuts.size()));
  return cuts;
}

bool CutPool::add(const Cut& cut) {
  // Tolerant comparison that also matches equal infinities (inf - inf is
  // NaN, so a plain fabs test would treat identical one-sided cuts as new).
  auto close = [](double a, double b) { return a == b || std::fabs(a - b) < 1e-9; };
  for (const Cut& existing : cuts_) {
    if (existing.terms.size() != cut.terms.size()) continue;
    bool same = close(existing.lb, cut.lb) && close(existing.ub, cut.ub);
    for (std::size_t i = 0; same && i < cut.terms.size(); ++i) {
      same = existing.terms[i].first == cut.terms[i].first &&
             std::fabs(existing.terms[i].second - cut.terms[i].second) < 1e-9;
    }
    if (same) return false;
  }
  cuts_.push_back(cut);
  return true;
}

}  // namespace gpumip::mip
