#include "checker.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

using namespace gpumip;

namespace {

constexpr double kFeasTol = 1e-6;

std::string at(const char* what, int index) { return std::string(what) + " " + std::to_string(index); }

}  // namespace

bool close_to(double value, double reference, double tol) {
  return std::fabs(value - reference) <= tol * (1.0 + std::fabs(reference));
}

Verdict check_mip(const mip::MipModel& model, const mip::MipResult& result, double int_tol) {
  if (result.status != mip::MipStatus::Optimal) {
    return std::string("status ") + mip::mip_status_name(result.status);
  }
  const lp::LpModel& lp = model.lp();
  if (!result.has_solution || static_cast<int>(result.x.size()) != lp.num_cols()) {
    return "no solution of the model's width";
  }
  const auto& x = result.x;
  for (int j = 0; j < lp.num_cols(); ++j) {
    const double v = x[static_cast<std::size_t>(j)];
    const lp::ColumnDef& col = lp.col(j);
    if (!std::isfinite(v) || v < col.lb - kFeasTol || v > col.ub + kFeasTol) {
      return at("x outside bounds at column", j);
    }
    if (model.is_integer(j) && std::fabs(v - std::round(v)) > int_tol) {
      return at("fractional integer column", j);
    }
  }
  std::vector<double> activity(static_cast<std::size_t>(lp.num_rows()), 0.0);
  std::vector<double> magnitude(static_cast<std::size_t>(lp.num_rows()), 0.0);
  for (const sparse::Triplet& t : lp.entries()) {
    const double term = t.value * x[static_cast<std::size_t>(t.col)];
    activity[static_cast<std::size_t>(t.row)] += term;
    magnitude[static_cast<std::size_t>(t.row)] += std::fabs(term);
  }
  for (int i = 0; i < lp.num_rows(); ++i) {
    const lp::RowDef& row = lp.row(i);
    const double a = activity[static_cast<std::size_t>(i)];
    const double tol = kFeasTol * std::max(1.0, magnitude[static_cast<std::size_t>(i)]);
    if (a < row.lb - tol || a > row.ub + tol) return at("row violated", i);
  }
  const double cx = lp.objective_value(x);
  if (!close_to(result.objective, cx, kFeasTol)) return "objective differs from c'x";
  const bool maximize = lp.sense() == lp::Sense::Maximize;
  const double slack = kFeasTol * (1.0 + std::fabs(result.objective));
  if (maximize ? result.bound < result.objective - slack
               : result.bound > result.objective + slack) {
    return "best bound on the wrong side of the incumbent";
  }
  return {};
}

Verdict check_lp(const lp::StandardForm& form, const lp::LpResult& result, double feas_tol) {
  if (result.status != lp::LpStatus::Optimal) {
    return std::string("status ") + lp::lp_status_name(result.status);
  }
  if (static_cast<int>(result.x.size()) != form.num_vars) return "x of the wrong width";
  for (double v : result.x) {
    if (!std::isfinite(v)) return "non-finite x";
  }
  double b_norm = 0.0;
  for (double v : form.b) b_norm = std::max(b_norm, std::fabs(v));
  const double tol = feas_tol * (1.0 + b_norm);
  if (!lp::within_bounds(form, result.x, tol)) return "x outside bounds";
  if (lp::equality_residual(form, result.x) > tol) return "Ax != b";
  return {};
}

}  // namespace perfbench
