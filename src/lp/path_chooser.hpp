// Runtime method- and code-path decisions (paper sections 2.3, 5.4 and
// claims C6/C7): the "super-MIP-solver" inspects the instance at solve time
// and routes it twice —
//
//   1. choose_method(): WHICH LP algorithm solves it (dual simplex,
//      interior point, or restarted PDHG). The three-way decision table
//      lives in docs/METHODS.md; it keys on warm-start availability, batch
//      occupancy, matrix density, and size.
//   2. choose_path(): WHERE the chosen method's linear algebra runs
//      (dense-GPU kernels vs sparse-hybrid).
//
// Every choose_method() decision is counted in gpumip.lp.method.chosen{method}
// (and gpumip.lp.method.forced for a pinned method).
#pragma once

#include <optional>

#include "sparse/formats.hpp"

namespace gpumip::lp {

enum class CodePath {
  DenseGpu,      ///< dense kernels on the device
  SparseHybrid,  ///< sparse kernels, setup stages on the CPU
};

const char* code_path_name(CodePath path) noexcept;

/// Below this density the sparse path wins on the device model. It sits at
/// the measured crossover of the cost model (bench E6): the sparse kernel's
/// efficiency/divergence penalty (~3.3x per nonzero vs the bandwidth-bound
/// dense kernel) puts the break-even near 30%.
inline constexpr double kDensityThreshold = 0.30;

/// Decides the code path for a constraint matrix.
CodePath choose_path(const sparse::Csr& a);

// ---- three-way LP method selection -----------------------------------------

enum class LpMethod {
  Simplex,        ///< (dual) simplex: exact vertex + basis, warm-start king
  InteriorPoint,  ///< Mehrotra predictor-corrector: few heavy iterations
  Pdhg,           ///< restarted PDHG: matrix-free, batches into lockstep waves
};

/// Stable lowercase names ("simplex", "interior_point", "pdhg") — the
/// vocabulary of docs/METHODS.md (check.sh's methods-doc gate asserts every
/// name below appears there).
const char* lp_method_name(LpMethod method) noexcept;

/// Per-solve facts the decision keys on, beyond the matrix itself.
struct MethodContext {
  bool warm_basis = false;     ///< a parent basis is available (dual simplex)
  bool warm_iterates = false;  ///< parent primal/dual iterates (PDHG warm start)
  int batch_size = 1;          ///< instances solved together in lockstep
  double tol = 1e-6;           ///< accuracy the caller needs
  /// Programmatic pin (e.g. mip::MipOptions::lp_method). Routing it through
  /// choose_method instead of branching at the caller keeps the
  /// every-decision-is-recorded contract: the pin still emits the
  /// gpumip.lp.method.* counters (as forced) and the choice trace instant.
  std::optional<LpMethod> forced;
};

/// Decides which LP method solves an instance of matrix `a` under `ctx`.
/// Decision table (docs/METHODS.md, "Choosing a method"; the thresholds are
/// the k* constants in path_chooser.cpp):
///   1. a ctx.forced pin wins and is counted as forced.
///   2. warm basis -> Simplex (dual simplex reuse beats everything).
///   3. batched (>= kBatchOccupancyMin) and sparse and not tiny -> Pdhg.
///   4. large and sparse (>= kPdhgMinRows, <= kPdhgDensityMax) -> Pdhg
///      (warm iterates lower the size bar to kPdhgBatchedMinRows).
///   5. large (>= kIpmMinRows) -> InteriorPoint.
///   6. otherwise -> Simplex.
/// Tolerances tighter than kPdhgTolMin disqualify Pdhg at steps 3-4.
LpMethod choose_method(const sparse::Csr& a, const MethodContext& ctx);

}  // namespace gpumip::lp
