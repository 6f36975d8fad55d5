// Structural validators for the solver's core data structures.
//
// Each validator walks one data structure and throws Error(kInternal) on the
// first violated invariant (after bumping the failure counter for its
// subsystem, see check/registry.hpp). Validators are deliberately O(whole
// structure): they are meant to run under GPUMIP_CHECKED builds (wrapped in
// GPUMIP_VALIDATE at the instrumented call sites) and in seeded-corruption
// tests, never on release hot paths.
//
// The invariants mirror the paper's correctness hazards:
//  * check_tree       — bound monotonicity parent->child, no orphaned open
//                       nodes, anatomy/counter consistency (Figure 1 state),
//                       and the order of the frontier's best-first heap.
//  * check_snapshot   — a consistent snapshot's frontier is well formed and
//                       the incumbent respects its own bounds (section 2.1).
//  * check_basis      — basis/status cross-consistency, and the
//                       ‖B·(B⁻¹x) − x‖ residual of an explicit inverse
//                       maintained by rank-1 eta updates (sections 4.3/5.1).
//  * check_sparse     — CSR/CSC structure: monotone starts, sorted unique
//                       indices, in-range dims, finite values.
#pragma once

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "check/registry.hpp"
#include "linalg/matrix.hpp"
#include "lp/basis.hpp"
#include "lp/standard_form.hpp"
#include "mip/snapshot.hpp"
#include "mip/tree.hpp"
#include "sparse/formats.hpp"
#include "support/error.hpp"

namespace gpumip::check {

namespace detail {

[[noreturn]] inline void fail(Subsystem s, const std::string& message) {
  count_failure(s);
  throw Error(ErrorCode::kInternal,
              std::string(subsystem_name(s)) + " invariant violated: " + message);
}

inline void require(bool cond, Subsystem s, const std::string& message) {
  if (!cond) fail(s, message);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Sparse formats (paper C6)
// ---------------------------------------------------------------------------

/// Validates CSR structure: row_start monotone from 0 to nnz, column indices
/// sorted strictly increasing within each row (sorted, no duplicates) and in
/// [0, cols), all values finite.
inline void check_sparse(const sparse::Csr& a) {
  count_check(Subsystem::kSparse);
  using detail::require;
  const Subsystem s = Subsystem::kSparse;
  require(a.rows >= 0 && a.cols >= 0, s, "negative dimensions");
  require(a.row_start.size() == static_cast<std::size_t>(a.rows) + 1, s,
          "row_start size != rows+1");
  require(a.row_start.empty() || a.row_start.front() == 0, s, "row_start[0] != 0");
  require(a.col_index.size() == a.values.size(), s, "col_index/values size mismatch");
  require(a.row_start.empty() ||
              a.row_start.back() == static_cast<int>(a.col_index.size()),
          s, "row_start[rows] != nnz");
  for (int i = 0; i < a.rows; ++i) {
    const int begin = a.row_start[static_cast<std::size_t>(i)];
    const int end = a.row_start[static_cast<std::size_t>(i) + 1];
    require(begin <= end, s, "row_start not monotone at row " + std::to_string(i));
    for (int k = begin; k < end; ++k) {
      const int col = a.col_index[static_cast<std::size_t>(k)];
      require(col >= 0 && col < a.cols,
              s, "column index out of range in row " + std::to_string(i));
      require(k == begin || a.col_index[static_cast<std::size_t>(k) - 1] < col,
              s, "unsorted or duplicate column index in row " + std::to_string(i));
      require(std::isfinite(a.values[static_cast<std::size_t>(k)]),
              s, "non-finite value in row " + std::to_string(i));
    }
  }
}

/// Validates CSC structure (mirror of the CSR checks, column-major).
inline void check_sparse(const sparse::Csc& a) {
  count_check(Subsystem::kSparse);
  using detail::require;
  const Subsystem s = Subsystem::kSparse;
  require(a.rows >= 0 && a.cols >= 0, s, "negative dimensions");
  require(a.col_start.size() == static_cast<std::size_t>(a.cols) + 1, s,
          "col_start size != cols+1");
  require(a.col_start.empty() || a.col_start.front() == 0, s, "col_start[0] != 0");
  require(a.row_index.size() == a.values.size(), s, "row_index/values size mismatch");
  require(a.col_start.empty() ||
              a.col_start.back() == static_cast<int>(a.row_index.size()),
          s, "col_start[cols] != nnz");
  for (int j = 0; j < a.cols; ++j) {
    const int begin = a.col_start[static_cast<std::size_t>(j)];
    const int end = a.col_start[static_cast<std::size_t>(j) + 1];
    require(begin <= end, s, "col_start not monotone at col " + std::to_string(j));
    for (int k = begin; k < end; ++k) {
      const int row = a.row_index[static_cast<std::size_t>(k)];
      require(row >= 0 && row < a.rows,
              s, "row index out of range in col " + std::to_string(j));
      require(k == begin || a.row_index[static_cast<std::size_t>(k) - 1] < row,
              s, "unsorted or duplicate row index in col " + std::to_string(j));
      require(std::isfinite(a.values[static_cast<std::size_t>(k)]),
              s, "non-finite value in col " + std::to_string(j));
    }
  }
}

// ---------------------------------------------------------------------------
// Branch-and-bound tree
// ---------------------------------------------------------------------------

/// Validates the whole node pool: parent links in range and acyclic (parent
/// id < child id by construction), every child's parent is Branched (no
/// orphaned open nodes under a retired parent), child bounds are monotone
/// non-decreasing along the parent link (min form), the anatomy counters
/// match a fresh recount, and the frontier heap holds exactly the live
/// frontier slots in (bound, slot) order. Call only at consistent points
/// (between node evaluations), where no node is in flight.
inline void check_tree(const mip::NodePool& pool, double tol = 1e-9) {
  count_check(Subsystem::kTree);
  using detail::require;
  const Subsystem s = Subsystem::kTree;
  mip::TreeAnatomy recount;
  recount.max_depth = 0;
  long active = 0;
  for (int id = 0; id < pool.size(); ++id) {
    const mip::BnbNode& n = pool.node(id);
    require(n.id == id, s, "node " + std::to_string(id) + " stores id " + std::to_string(n.id));
    require(n.parent >= -1 && n.parent < pool.size(),
            s, "node " + std::to_string(id) + " parent out of range");
    require(n.parent < id, s,
            "node " + std::to_string(id) + " precedes its parent (cycle)");
    require(n.lb.size() == n.ub.size(), s,
            "node " + std::to_string(id) + " lb/ub size mismatch");
    if (n.parent >= 0) {
      const mip::BnbNode& p = pool.node(n.parent);
      require(p.state == mip::NodeState::Branched, s,
              "orphaned node " + std::to_string(id) + ": parent " +
                  std::to_string(n.parent) + " is " + mip::node_state_name(p.state) +
                  ", not branched");
      require(n.depth == p.depth + 1, s,
              "node " + std::to_string(id) + " depth != parent depth + 1");
      require(n.bound + tol >= p.bound, s,
              "bound regression: node " + std::to_string(id) + " bound " +
                  std::to_string(n.bound) + " < parent bound " + std::to_string(p.bound));
    }
    recount.max_depth = std::max(recount.max_depth, n.depth);
    ++recount.total_nodes;
    switch (n.state) {
      case mip::NodeState::Active: ++active; break;
      case mip::NodeState::Branched: ++recount.branched; break;
      case mip::NodeState::FeasibleLeaf: ++recount.feasible_leaves; break;
      case mip::NodeState::InfeasibleLeaf: ++recount.infeasible_leaves; break;
      case mip::NodeState::PrunedLeaf: ++recount.pruned_leaves; break;
    }
  }
  const mip::TreeAnatomy& a = pool.anatomy();
  require(a.total_nodes == recount.total_nodes, s, "anatomy total_nodes stale");
  require(a.branched == recount.branched, s, "anatomy branched count stale");
  require(a.feasible_leaves == recount.feasible_leaves, s, "anatomy feasible count stale");
  require(a.infeasible_leaves == recount.infeasible_leaves, s, "anatomy infeasible count stale");
  require(a.pruned_leaves == recount.pruned_leaves, s, "anatomy pruned count stale");
  require(static_cast<long>(pool.active_size()) == active, s,
          "active counter (" + std::to_string(pool.active_size()) +
              ") != live active nodes (" + std::to_string(active) + ")");
  require(recount.total_nodes == a.branched + a.leaves() + active, s,
          "node states do not partition the tree");
  // The best-first heap: one entry per live frontier slot, naming the slot
  // that holds its node and carrying that node's bound, each entry's key
  // (bound, slot) above its parent's.
  const std::span<const int> slots = pool.frontier_slots();
  const std::span<const mip::NodePool::HeapEntry> heap = pool.frontier_heap();
  long live_slots = 0;
  for (int id : slots) {
    require(id >= 0 && id < pool.size(), s, "frontier slot holds an out-of-range id");
    if (pool.node(id).state == mip::NodeState::Active) ++live_slots;
  }
  require(static_cast<long>(heap.size()) == live_slots, s,
          "heap size (" + std::to_string(heap.size()) + ") != live frontier slots (" +
              std::to_string(live_slots) + ")");
  std::vector<bool> seen(slots.size(), false);
  for (std::size_t i = 0; i < heap.size(); ++i) {
    const mip::NodePool::HeapEntry& e = heap[i];
    const mip::NodePool::HeapEntry& p = heap[i > 0 ? (i - 1) / 2 : 0];
    const char* broken = nullptr;
    if (e.slot < 0 || static_cast<std::size_t>(e.slot) >= slots.size() ||
        slots[static_cast<std::size_t>(e.slot)] != e.id) {
      broken = "names a slot that does not hold its node";
    } else if (seen[static_cast<std::size_t>(e.slot)]) {
      broken = "repeats a slot";
    } else if (pool.node(e.id).state != mip::NodeState::Active) {
      broken = "holds a finished node";
    } else if (pool.node(e.id).bound != e.bound) {
      broken = "carries a stale bound";
    } else if (i > 0 && !(p.bound < e.bound || (p.bound == e.bound && p.slot < e.slot))) {
      broken = "sorts before its parent";
    }
    if (broken != nullptr) detail::fail(s, "heap entry " + std::to_string(i) + " " + broken);
    seen[static_cast<std::size_t>(e.slot)] = true;
  }
}

// ---------------------------------------------------------------------------
// Consistent snapshots (paper C2)
// ---------------------------------------------------------------------------

/// Validates a consistent snapshot: every frontier node has matching,
/// ordered bound vectors; node bounds do not exceed the incumbent (worse
/// nodes must have been pruned before capture); and when the standard form
/// is supplied, vector sizes match it, every carried basis fits it, and the
/// incumbent point respects its structural bounds. `in_flight` is the
/// number of nodes currently assigned to workers — a parallel snapshot is
/// only consistent when it is zero (section 2.1's in-flight hazard).
inline void check_snapshot(const mip::ConsistentSnapshot& snap,
                           const lp::StandardForm* form = nullptr, long in_flight = 0,
                           double tol = 1e-6) {
  count_check(Subsystem::kSnapshot);
  using detail::require;
  const Subsystem s = Subsystem::kSnapshot;
  require(in_flight == 0, s,
          "snapshot captured with " + std::to_string(in_flight) +
              " in-flight nodes: frontier does not cover the live search");
  require(snap.nodes_solved_so_far >= 0, s, "negative nodes_solved_so_far");
  std::size_t expected_len = form != nullptr ? static_cast<std::size_t>(form->num_vars) : 0;
  for (std::size_t i = 0; i < snap.frontier.size(); ++i) {
    const mip::SnapshotNode& node = snap.frontier[i];
    require(node.lb.size() == node.ub.size(), s,
            "frontier node " + std::to_string(i) + " lb/ub size mismatch");
    if (expected_len == 0) expected_len = node.lb.size();
    require(node.lb.size() == expected_len, s,
            "frontier node " + std::to_string(i) + " bound vector length differs");
    for (std::size_t j = 0; j < node.lb.size(); ++j) {
      require(node.lb[j] <= node.ub[j] + tol, s,
              "frontier node " + std::to_string(i) + " has crossed bounds at var " +
                  std::to_string(j));
    }
    require(node.depth >= 0, s, "frontier node " + std::to_string(i) + " negative depth");
    require(!(node.bound > snap.incumbent_objective + tol), s,
            "frontier node " + std::to_string(i) +
                " bound exceeds the incumbent (should have been pruned)");
    if (form != nullptr && !node.basis.empty()) {
      if (const char* fault = lp::basis_fault(node.basis, form->num_rows, form->num_vars)) {
        detail::fail(s, "frontier node " + std::to_string(i) + " basis: " + fault);
      }
    }
  }
  // An incumbent objective without a point is a bound-only cutoff (e.g. a
  // worker inheriting the supervisor's global incumbent value): nothing to
  // cross-check. A stored point, however, must match the structural space.
  if (snap.has_incumbent() && form != nullptr && !snap.incumbent_x.empty()) {
    require(static_cast<int>(snap.incumbent_x.size()) == form->num_struct, s,
            "incumbent_x length != structural variable count");
    for (int j = 0; j < form->num_struct; ++j) {
      const double v = snap.incumbent_x[static_cast<std::size_t>(j)];
      require(std::isfinite(v), s, "incumbent has non-finite entry at var " + std::to_string(j));
      require(v >= form->lb[static_cast<std::size_t>(j)] - tol &&
                  v <= form->ub[static_cast<std::size_t>(j)] + tol,
              s, "incumbent violates structural bounds at var " + std::to_string(j));
    }
  }
}

// ---------------------------------------------------------------------------
// Simplex basis & eta-updated inverse (paper C3)
// ---------------------------------------------------------------------------

/// Validates basis/status cross-consistency against a standard form:
/// exactly num_rows basic variables, each in range, flagged Basic, and
/// distinct; exactly num_rows Basic entries in `status`.
inline void check_basis(const lp::StandardForm& form, const lp::Basis& basis) {
  count_check(Subsystem::kBasis);
  if (const char* fault = lp::basis_fault(basis, form.num_rows, form.num_vars)) {
    detail::fail(Subsystem::kBasis, fault);
  }
}

/// Residual ‖B·(B⁻¹x) − x‖∞ for the probe x = (1,…,1): measures how far the
/// maintained explicit inverse has drifted from the true basis matrix.
inline double basis_inverse_residual(const linalg::Matrix& b, const linalg::Matrix& binv) {
  const int m = b.rows();
  linalg::Vector y(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < m; ++j) {       // y = B⁻¹ · 1
    const auto col = binv.col(j);
    for (int i = 0; i < m; ++i) y[static_cast<std::size_t>(i)] += col[static_cast<std::size_t>(i)];
  }
  linalg::Vector z(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < m; ++j) {       // z = B · y
    const auto col = b.col(j);
    const double yj = y[static_cast<std::size_t>(j)];
    if (yj == 0.0) continue;
    for (int i = 0; i < m; ++i) {
      z[static_cast<std::size_t>(i)] += col[static_cast<std::size_t>(i)] * yj;
    }
  }
  double err = 0.0;
  double scale = 1.0;
  for (int i = 0; i < m; ++i) {
    err = std::max(err, std::fabs(z[static_cast<std::size_t>(i)] - 1.0));
    scale = std::max(scale, std::fabs(y[static_cast<std::size_t>(i)]));
  }
  return err / scale;
}

/// Throws when the maintained inverse no longer inverts `b` to within
/// `tol` (relative residual). `b` and `binv` must be square and same-shape.
inline void check_basis_inverse(const linalg::Matrix& b, const linalg::Matrix& binv,
                                double tol = 1e-6, const char* where = "") {
  count_check(Subsystem::kBasis);
  using detail::require;
  const Subsystem s = Subsystem::kBasis;
  require(b.rows() == b.cols() && binv.rows() == binv.cols() && b.rows() == binv.rows(), s,
          std::string("basis/inverse shape mismatch ") + where);
  const double residual = basis_inverse_residual(b, binv);
  require(residual <= tol, s,
          "eta-updated inverse drifted: residual " + std::to_string(residual) +
              " > tol " + std::to_string(tol) + " " + where);
}

}  // namespace gpumip::check
