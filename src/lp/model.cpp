#include "lp/model.hpp"

#include <cmath>

namespace gpumip::lp {

int LpModel::add_col(double obj, double lb, double ub, std::string name) {
  check_arg(lb <= ub, "add_col: lb > ub");
  cols_.push_back({obj, lb, ub, std::move(name)});
  return num_cols() - 1;
}

int LpModel::add_row(double lb, double ub, std::string name) {
  check_arg(lb <= ub, "add_row: lb > ub");
  rows_.push_back({lb, ub, std::move(name)});
  return num_rows() - 1;
}

void LpModel::set_coef(int row, int col, double value) {
  check_arg(row >= 0 && row < num_rows(), "set_coef: bad row");
  check_arg(col >= 0 && col < num_cols(), "set_coef: bad col");
  if (value != 0.0) entries_.push_back({row, col, value});
}

int LpModel::add_row_le(const std::vector<Term>& terms, double rhs, std::string name) {
  const int r = add_row(-kInf, rhs, std::move(name));
  for (const auto& [col, coef] : terms) set_coef(r, col, coef);
  return r;
}

int LpModel::add_row_ge(const std::vector<Term>& terms, double rhs, std::string name) {
  const int r = add_row(rhs, kInf, std::move(name));
  for (const auto& [col, coef] : terms) set_coef(r, col, coef);
  return r;
}

int LpModel::add_row_eq(const std::vector<Term>& terms, double rhs, std::string name) {
  const int r = add_row(rhs, rhs, std::move(name));
  for (const auto& [col, coef] : terms) set_coef(r, col, coef);
  return r;
}

int LpModel::add_row_range(const std::vector<Term>& terms, double lb, double ub,
                           std::string name) {
  const int r = add_row(lb, ub, std::move(name));
  for (const auto& [col, coef] : terms) set_coef(r, col, coef);
  return r;
}

sparse::Csr LpModel::matrix() const {
  return sparse::csr_from_triplets(num_rows(), num_cols(), entries_);
}

double LpModel::density() const {
  if (num_rows() == 0 || num_cols() == 0) return 0.0;
  return matrix().density();
}

double LpModel::objective_value(std::span<const double> x) const {
  check_arg(static_cast<int>(x.size()) >= num_cols(), "objective_value: x too short");
  double sum = 0.0;
  for (int j = 0; j < num_cols(); ++j) {
    sum += cols_[static_cast<std::size_t>(j)].obj * x[static_cast<std::size_t>(j)];
  }
  return sum;
}

void LpModel::validate() const {
  for (int j = 0; j < num_cols(); ++j) {
    const auto& c = cols_[static_cast<std::size_t>(j)];
    if (!(c.lb <= c.ub)) check_arg(false, "column " + std::to_string(j) + ": lb > ub");
    if (!std::isfinite(c.obj)) {
      check_arg(false, "column " + std::to_string(j) + ": non-finite objective");
    }
  }
  for (int i = 0; i < num_rows(); ++i) {
    const auto& r = rows_[static_cast<std::size_t>(i)];
    if (!(r.lb <= r.ub)) check_arg(false, "row " + std::to_string(i) + ": lb > ub");
  }
  for (const auto& t : entries_) {
    check_arg(t.row >= 0 && t.row < num_rows() && t.col >= 0 && t.col < num_cols(),
              "entry out of range");
    check_arg(std::isfinite(t.value), "non-finite coefficient");
  }
}

}  // namespace gpumip::lp
