// User-facing linear program model: columns with bounds and objective,
// rows with (possibly ranged) activity bounds, sparse coefficients.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sparse/formats.hpp"

namespace gpumip::lp {

enum class Sense { Minimize, Maximize };

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ColumnDef {
  double obj = 0.0;
  double lb = 0.0;
  double ub = kInf;
  std::string name;
};

struct RowDef {
  double lb = -kInf;  ///< lower activity bound
  double ub = kInf;   ///< upper activity bound (lb == ub -> equality)
  std::string name;
};

/// A (row, coefficient) pair for convenience row builders.
using Term = std::pair<int, double>;

class LpModel {
 public:
  Sense sense() const noexcept { return sense_; }
  void set_sense(Sense sense) noexcept { sense_ = sense; }

  int num_cols() const noexcept { return static_cast<int>(cols_.size()); }
  int num_rows() const noexcept { return static_cast<int>(rows_.size()); }

  /// Adds a column; returns its index.
  int add_col(double obj, double lb = 0.0, double ub = kInf, std::string name = "");
  /// Adds an empty row with activity bounds; returns its index.
  int add_row(double lb, double ub, std::string name = "");

  /// Appends a coefficient (duplicates are summed at compression time).
  void set_coef(int row, int col, double value);

  // Convenience whole-row builders (terms are (col, coef)).
  int add_row_le(const std::vector<Term>& terms, double rhs, std::string name = "");
  int add_row_ge(const std::vector<Term>& terms, double rhs, std::string name = "");
  int add_row_eq(const std::vector<Term>& terms, double rhs, std::string name = "");
  int add_row_range(const std::vector<Term>& terms, double lb, double ub, std::string name = "");

  const ColumnDef& col(int j) const { return cols_[static_cast<std::size_t>(j)]; }
  ColumnDef& col(int j) { return cols_[static_cast<std::size_t>(j)]; }
  const RowDef& row(int i) const { return rows_[static_cast<std::size_t>(i)]; }
  RowDef& row(int i) { return rows_[static_cast<std::size_t>(i)]; }

  const std::vector<sparse::Triplet>& entries() const noexcept { return entries_; }

  /// Compressed row-wise matrix of the model.
  sparse::Csr matrix() const;

  /// Fraction of nonzero cells.
  double density() const;

  /// Objective value of a point (in the model's own sense).
  double objective_value(std::span<const double> x) const;

  /// Throws on inconsistent bounds (lb > ub) or out-of-range indices.
  void validate() const;

 private:
  Sense sense_ = Sense::Minimize;
  std::vector<ColumnDef> cols_;
  std::vector<RowDef> rows_;
  std::vector<sparse::Triplet> entries_;
};

}  // namespace gpumip::lp
