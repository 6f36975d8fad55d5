// Mixed integer program model: an LpModel plus integrality marks.
#pragma once

#include <vector>

#include "lp/model.hpp"

namespace gpumip::mip {

class MipModel {
 public:
  /// Mutable access to the wrapped LP. Add ROWS freely; COLUMNS must go
  /// through add_col/add_int_col/add_bin_col so integrality flags stay in
  /// sync (or call reset_lp with explicit flags).
  lp::LpModel& lp() noexcept { return lp_; }
  const lp::LpModel& lp() const noexcept { return lp_; }

  /// Replaces the wrapped LP wholesale. `integer` must have one flag per
  /// column (empty = all continuous).
  void reset_lp(lp::LpModel lp, std::vector<bool> integer = {});

  /// Adds a continuous column.
  int add_col(double obj, double lb = 0.0, double ub = lp::kInf, std::string name = "");
  /// Adds an integer column.
  int add_int_col(double obj, double lb = 0.0, double ub = lp::kInf, std::string name = "");
  /// Adds a binary column.
  int add_bin_col(double obj, std::string name = "");

  bool is_integer(int col) const { return integer_[static_cast<std::size_t>(col)]; }
  void set_integer(int col, bool integer);
  const std::vector<bool>& integer_flags() const noexcept { return integer_; }
  int num_integer() const;

  int num_cols() const noexcept { return lp_.num_cols(); }
  int num_rows() const noexcept { return lp_.num_rows(); }

  /// True when x is integral on all integer columns within tol.
  bool is_integral(std::span<const double> x, double tol = 1e-6) const;

  /// True when x satisfies all row and column bounds within tol.
  bool is_feasible(std::span<const double> x, double tol = 1e-6) const;
  /// The same check on `rows`, which must be lp().matrix(): a caller that
  /// checks many points builds the matrix once instead of once per call.
  bool is_feasible(std::span<const double> x, const sparse::Csr& rows,
                   double tol = 1e-6) const;

  void validate() const;

 private:
  lp::LpModel lp_;
  std::vector<bool> integer_;
};

}  // namespace gpumip::mip
