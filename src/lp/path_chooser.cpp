#include "lp/path_chooser.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace gpumip::lp {

namespace {

/// Matrices smaller than this are always dense (latency dominates).
constexpr int kSmallDimension = 64;

/// PDHG is only competitive when its per-wave nnz traffic undercuts the
/// competition; above this density the SpMV advantage is gone.
constexpr double kPdhgDensityMax = 0.05;
/// Sequential PDHG pays thousands of kernel launches, so a cold
/// single-instance solve only prefers it at the scale where IPM's dense
/// factorization stops fitting/paying (bench_e9_methods E9-a: IPM wins
/// every cold sequential cell up to hundreds of rows).
constexpr int kPdhgMinRows = 4096;
/// Batched lockstep amortizes launches across the batch; with at least
/// this many instances in flight PDHG's bar drops to kPdhgBatchedMinRows.
constexpr int kBatchOccupancyMin = 16;
constexpr int kPdhgBatchedMinRows = 48;
/// Above this row count a cold solve prefers interior point: ~10 heavy
/// Cholesky iterations launch two orders of magnitude fewer kernels than
/// the pivot-by-pivot simplex, and the crossover arrives early
/// (bench_e9_methods E9-a). Tiny instances stay on simplex, whose warm
/// restarts dominate real branch-and-bound work anyway.
constexpr int kIpmMinRows = 48;
/// Accuracy below which first-order methods are ruled out entirely.
constexpr double kPdhgTolMin = 1e-8;

}  // namespace

const char* code_path_name(CodePath path) noexcept {
  switch (path) {
    case CodePath::DenseGpu: return "DenseGpu";
    case CodePath::SparseHybrid: return "SparseHybrid";
  }
  return "Unknown";
}

CodePath choose_path(const sparse::Csr& a) {
  if (std::min(a.rows, a.cols) <= kSmallDimension) return CodePath::DenseGpu;
  return a.density() >= kDensityThreshold ? CodePath::DenseGpu : CodePath::SparseHybrid;
}

const char* lp_method_name(LpMethod method) noexcept {
  switch (method) {
    case LpMethod::Simplex: return "simplex";
    case LpMethod::InteriorPoint: return "interior_point";
    case LpMethod::Pdhg: return "pdhg";
  }
  return "unknown";
}

namespace {

void record_choice(LpMethod method, bool forced) {
  // One counter family with a method dimension (rather than a name per
  // method): the switch keeps each site's labels literal so the macro can
  // cache the lookup.
  switch (method) {
    case LpMethod::Simplex:
      GPUMIP_OBS_COUNT_L("gpumip.lp.method.chosen", {"method", "simplex"});
      break;
    case LpMethod::InteriorPoint:
      GPUMIP_OBS_COUNT_L("gpumip.lp.method.chosen", {"method", "interior_point"});
      break;
    case LpMethod::Pdhg:
      GPUMIP_OBS_COUNT_L("gpumip.lp.method.chosen", {"method", "pdhg"});
      break;
  }
  if (forced) GPUMIP_OBS_COUNT("gpumip.lp.method.forced");
}

}  // namespace

LpMethod choose_method(const sparse::Csr& a, const MethodContext& ctx) {
  if (ctx.forced) {
    record_choice(*ctx.forced, /*forced=*/true);
    return *ctx.forced;
  }

  const double density = a.density();
  const bool sparse_enough = density <= kPdhgDensityMax;
  const bool accuracy_ok = ctx.tol >= kPdhgTolMin;
  LpMethod method = LpMethod::Simplex;

  if (ctx.warm_basis) {
    // Dual simplex from the parent basis is a handful of cheap iterations;
    // nothing beats it regardless of shape (paper section 5.3).
    method = LpMethod::Simplex;
  } else if (ctx.batch_size >= kBatchOccupancyMin && sparse_enough && accuracy_ok &&
             a.rows >= kPdhgBatchedMinRows) {
    // Lockstep waves amortize the launch latency over the whole batch and
    // move K·nnz bytes where simplex waves move K·m² — PDHG's home turf.
    method = LpMethod::Pdhg;
  } else if (sparse_enough && accuracy_ok &&
             a.rows >= (ctx.warm_iterates ? kPdhgBatchedMinRows : kPdhgMinRows)) {
    // Sequential PDHG still wins when the instance is large and sparse
    // enough that factorizations dominate; parent iterates lower the bar.
    method = LpMethod::Pdhg;
  } else if (a.rows >= kIpmMinRows) {
    // Cold, large, not sparse enough for PDHG: few heavy IPM kernels beat
    // thousands of simplex iterations.
    method = LpMethod::InteriorPoint;
  } else {
    method = LpMethod::Simplex;
  }

  record_choice(method, /*forced=*/false);
  return method;
}

}  // namespace gpumip::lp
