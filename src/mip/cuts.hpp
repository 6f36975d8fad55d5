// Cutting planes (paper section 5.2: cuts are generated host-side and
// incorporated into the device matrix).
//
// Implemented families:
//  * Gomory mixed-integer (GMI) cuts from fractional rows of the optimal
//    simplex tableau — globally valid for the MIP,
//  * knapsack cover cuts for binary knapsack-like rows.
//
// Cuts are returned in the original model's variable space (slack variables
// are substituted out), ready to append as rows.
#pragma once

#include <vector>

#include "lp/result.hpp"
#include "lp/standard_form.hpp"
#include "mip/model.hpp"

namespace gpumip::mip {

/// One cut: lb <= Σ terms <= ub over structural variables.
struct Cut {
  std::vector<lp::Term> terms;
  double lb = -lp::kInf;
  double ub = lp::kInf;

  /// Activity of the cut at a point.
  double activity(std::span<const double> x) const;
  /// Violation of the cut at a point (positive = violated).
  double violation(std::span<const double> x) const;
};

struct CutOptions {
  int max_cuts = 10;
  double min_violation = 1e-4;
};

/// GMI cuts from the optimal basis of `result` on `form`. `model` provides
/// integrality and the row definitions used to substitute slacks out.
std::vector<Cut> gomory_cuts(const MipModel& model, const lp::StandardForm& form,
                             const lp::LpResult& result, const CutOptions& options = {});

/// Cover cuts from binary knapsack rows violated by `x`.
std::vector<Cut> cover_cuts(const MipModel& model, std::span<const double> x,
                            const CutOptions& options = {});

/// Deduplicating cut pool.
class CutPool {
 public:
  /// Adds a cut unless an (approximately) identical one is present.
  /// Returns true if added.
  bool add(const Cut& cut);
  const std::vector<Cut>& cuts() const noexcept { return cuts_; }
  std::size_t size() const noexcept { return cuts_.size(); }

 private:
  std::vector<Cut> cuts_;
};

}  // namespace gpumip::mip
