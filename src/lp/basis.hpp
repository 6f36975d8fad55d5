// Simplex basis description — the warm-start currency passed between a
// branch-and-bound parent and its children (paper section 5.3: reuse of
// the factorized matrix across tree nodes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpumip::lp {

enum class VarStatus : std::uint8_t {
  Basic,
  AtLower,
  AtUpper,
  Free,  ///< nonbasic free variable (sits at 0)
};

struct Basis {
  std::vector<int> basic;           ///< size m: variable basic in each row
  std::vector<VarStatus> status;    ///< size num_vars

  bool empty() const noexcept { return basic.empty(); }

  bool operator==(const Basis& other) const = default;
};

/// The first structural rule `basis` breaks for a form of `num_rows` rows
/// and `num_vars` variables, or nullptr when it fits: num_rows basic
/// variables, each in range, flagged Basic and distinct, and exactly
/// num_rows Basic entries among num_vars statuses. Allocates nothing.
inline const char* basis_fault(const Basis& basis, int num_rows, int num_vars) {
  if (basis.basic.size() != static_cast<std::size_t>(num_rows)) return "basic size != num_rows";
  if (basis.status.size() != static_cast<std::size_t>(num_vars)) return "status size != num_vars";
  for (std::size_t i = 0; i < basis.basic.size(); ++i) {
    const int v = basis.basic[i];
    if (v < 0 || v >= num_vars) return "basic variable out of range";
    if (basis.status[static_cast<std::size_t>(v)] != VarStatus::Basic) {
      return "basic variable not flagged Basic";
    }
    for (std::size_t k = 0; k < i; ++k) {
      if (basis.basic[k] == v) return "variable basic in two rows";
    }
  }
  long basic_count = 0;
  for (VarStatus st : basis.status) basic_count += st == VarStatus::Basic ? 1 : 0;
  return basic_count == num_rows ? nullptr : "Basic status count != num_rows";
}

}  // namespace gpumip::lp
