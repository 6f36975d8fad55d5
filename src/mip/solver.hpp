// Sequential branch-and-bound / cut-and-branch MIP engine.
//
// The engine keeps the tree in host memory (the paper's recommended
// strategy 2 layout), solves each node's LP relaxation with the revised
// simplex (dual-simplex warm starts from the parent basis), strengthens the
// root with GMI/cover cuts, and runs primal heuristics for incumbents. All
// linear algebra performed per node is recorded as a NodeTrace so the
// strategy layer (parallel/strategies.hpp) can replay it onto simulated
// GPU/CPU timelines.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "lp/interior_point.hpp"
#include "lp/path_chooser.hpp"
#include "lp/pdhg.hpp"
#include "lp/simplex.hpp"
#include "mip/cuts.hpp"
#include "mip/heuristics.hpp"
#include "mip/model.hpp"
#include "mip/snapshot.hpp"
#include "mip/tree.hpp"

namespace gpumip::mip {

enum class MipStatus {
  Optimal,
  Infeasible,
  Unbounded,
  NodeLimit,
};

const char* mip_status_name(MipStatus status) noexcept;

struct MipOptions {
  long max_nodes = 200000;
  double int_tol = 1e-6;
  NodeSelection node_selection = NodeSelection::BestFirst;
  bool enable_cuts = true;
  CutOptions cuts;
  bool enable_heuristics = true;
  lp::SimplexOptions lp;
  /// Force every node relaxation onto one LP method. Unset: lp::choose_method
  /// picks per node (warm basis -> dual simplex, etc.; see docs/METHODS.md).
  std::optional<lp::LpMethod> lp_method;
  lp::InteriorPointOptions ipm;
  lp::PdhgOptions pdhg;
  /// Emit a consistent snapshot every N evaluated nodes (0 = never).
  int snapshot_interval = 0;
  std::function<void(const ConsistentSnapshot&)> on_snapshot;
};

/// Linear-algebra record of one node evaluation, for timeline replay.
struct NodeTrace {
  int node_id = -1;
  int parent = -1;
  bool hot = false;  ///< parent was the previously evaluated node (locality)
  /// The simplex started from the parent's B⁻¹ instead of refactorizing.
  bool inherited = false;
  lp::LpStatus lp_status = lp::LpStatus::NumericalTrouble;
  lp::LpOpStats ops;
};

struct MipStats {
  long nodes_evaluated = 0;
  long lp_iterations = 0;
  long cuts_added = 0;
  int cut_rounds_used = 0;
  long hot_nodes = 0;  ///< nodes warm-continuing from the previous node
  /// LP bound of the root after cuts (min form). Set by solve() only: a
  /// solve_from() search has no root, so it leaves this at 0.
  double root_bound = 0.0;
  lp::LpOpStats total_ops;
  TreeAnatomy anatomy;
};

struct MipResult {
  MipStatus status = MipStatus::Infeasible;
  double objective = 0.0;  ///< user-sense incumbent objective (if any)
  bool has_solution = false;
  linalg::Vector x;        ///< structural variable values
  double bound = 0.0;      ///< user-sense best dual bound
  MipStats stats;

  double gap() const;
};

class BnbSolver {
 public:
  BnbSolver(const MipModel& model, MipOptions options = {});
  ~BnbSolver();
  BnbSolver(const BnbSolver&) = delete;
  BnbSolver& operator=(const BnbSolver&) = delete;

  /// Full solve from the root.
  [[nodiscard]] MipResult solve();

  /// Continue a search from a consistent snapshot (checkpoint restart, or a
  /// supervised worker's subproblem). A frontier node that carries a basis
  /// starts from it with the dual simplex. The solver may be reused: each
  /// call starts a fresh tree on the same form and LP solvers. Throws
  /// Error(kInvalidArgument) before any node is evaluated when the snapshot
  /// does not fit the model (see check_resumable).
  [[nodiscard]] MipResult solve_from(const ConsistentSnapshot& snapshot);

  /// A consistent snapshot of the current frontier (valid during/after
  /// solve; between node evaluations the active set is exactly consistent).
  /// Each node carries its parent's basis when that basis is fully
  /// structural.
  [[nodiscard]] ConsistentSnapshot capture_snapshot() const;

  /// Tree inspection (Figure 1 reproduction).
  const NodePool& pool() const;

  /// Per-node linear-algebra traces in evaluation order.
  const std::vector<NodeTrace>& trace() const noexcept { return trace_; }

  /// The (possibly cut-strengthened) model the search ran on.
  const MipModel& working_model() const noexcept { return model_; }

  /// The standard form of working_model() that the node LPs ran on.
  const lp::StandardForm& form() const;

 private:
  struct Impl;
  MipResult run(const ConsistentSnapshot* snapshot);
  void root_cut_loop();
  /// Builds form_, its simplex solver and rows_ from model_'s current rows.
  void rebuild_form();

  MipModel model_;  // private copy; cuts append rows
  MipOptions options_;
  std::unique_ptr<lp::StandardForm> form_;
  sparse::Csr rows_;  // model_.lp().matrix(), for the rounding heuristic
  std::unique_ptr<lp::SimplexSolver> lp_solver_;
  std::unique_ptr<lp::InteriorPointSolver> ipm_solver_;
  std::unique_ptr<lp::PdhgSolver> pdhg_solver_;
  std::unique_ptr<NodePool> pool_;
  std::vector<NodeTrace> trace_;
  MipStats stats_;
  // Incumbent in min form.
  double incumbent_obj_ = 1e300;
  linalg::Vector incumbent_x_;
};

/// Throws Error(kInvalidArgument) unless `snapshot` can resume a search on
/// `model`, whose standard form is `form`: every frontier node has
/// form.num_vars bounds lying inside the form's bounds and an empty basis or
/// one that passes lp::basis_fault for the form, and a non-empty incumbent
/// has form.num_struct entries, is feasible for the model and is integral
/// within `int_tol`. Allocates nothing when the snapshot fits, so a
/// per-subproblem resume can afford it.
void check_resumable(const MipModel& model, const lp::StandardForm& form,
                     const ConsistentSnapshot& snapshot, double int_tol);

/// Solves a MIP by brute-force enumeration over integer assignments with an
/// LP for the continuous part. Exponential; only for cross-checking the
/// engine on tiny instances in tests.
[[nodiscard]] MipResult solve_by_enumeration(const MipModel& model, double int_tol = 1e-6);

}  // namespace gpumip::mip
