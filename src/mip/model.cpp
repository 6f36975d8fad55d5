#include "mip/model.hpp"

#include <cmath>

#include "sparse/ops.hpp"

namespace gpumip::mip {

void MipModel::reset_lp(lp::LpModel lp, std::vector<bool> integer) {
  if (integer.empty()) integer.assign(static_cast<std::size_t>(lp.num_cols()), false);
  check_arg(static_cast<int>(integer.size()) == lp.num_cols(),
            "reset_lp: integrality flag count mismatch");
  lp_ = std::move(lp);
  integer_ = std::move(integer);
}

int MipModel::add_col(double obj, double lb, double ub, std::string name) {
  const int j = lp_.add_col(obj, lb, ub, std::move(name));
  integer_.push_back(false);
  return j;
}

int MipModel::add_int_col(double obj, double lb, double ub, std::string name) {
  const int j = lp_.add_col(obj, lb, ub, std::move(name));
  integer_.push_back(true);
  return j;
}

int MipModel::add_bin_col(double obj, std::string name) {
  return add_int_col(obj, 0.0, 1.0, std::move(name));
}

void MipModel::set_integer(int col, bool integer) {
  check_arg(col >= 0 && col < num_cols(), "set_integer: bad column");
  integer_[static_cast<std::size_t>(col)] = integer;
}

int MipModel::num_integer() const {
  int count = 0;
  for (bool b : integer_) count += b ? 1 : 0;
  return count;
}

bool MipModel::is_integral(std::span<const double> x, double tol) const {
  for (int j = 0; j < num_cols(); ++j) {
    if (!integer_[static_cast<std::size_t>(j)]) continue;
    const double v = x[static_cast<std::size_t>(j)];
    if (std::fabs(v - std::round(v)) > tol) return false;
  }
  return true;
}

bool MipModel::is_feasible(std::span<const double> x, double tol) const {
  return is_feasible(x, lp_.matrix(), tol);
}

bool MipModel::is_feasible(std::span<const double> x, const sparse::Csr& rows,
                           double tol) const {
  check_arg(rows.rows == num_rows() && rows.cols == num_cols(),
            "is_feasible: row matrix does not fit the model");
  for (int j = 0; j < num_cols(); ++j) {
    const auto& c = lp_.col(j);
    const double v = x[static_cast<std::size_t>(j)];
    if (v < c.lb - tol || v > c.ub + tol) return false;
  }
  const std::span<const double> xs = x.subspan(0, static_cast<std::size_t>(num_cols()));
  for (int i = 0; i < num_rows(); ++i) {
    const auto& r = lp_.row(i);
    const double v = sparse::row_dot(rows, i, xs);  // spmv's per-row sum
    if (v < r.lb - tol || v > r.ub + tol) return false;
  }
  return true;
}

void MipModel::validate() const {
  lp_.validate();
  check_arg(static_cast<int>(integer_.size()) == lp_.num_cols(),
            "MipModel: integrality flag count mismatch");
}

}  // namespace gpumip::mip
