// Branch-and-bound tree: node storage, the active set under pluggable
// selection policies, and the tree-anatomy accounting that reproduces the
// paper's Figure 1 (feasible / infeasible / pruned leaves, branched
// interior nodes, active frontier).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "lp/basis.hpp"

namespace gpumip::mip {

/// Lifecycle tag of a tree node (Figure 1's labels).
enum class NodeState {
  Active,          ///< in the frontier, not yet evaluated
  Branched,        ///< evaluated, children generated (interior node)
  FeasibleLeaf,    ///< LP solution integral (incumbent candidate)
  InfeasibleLeaf,  ///< LP relaxation infeasible
  PrunedLeaf,      ///< bound no better than incumbent
};

const char* node_state_name(NodeState state) noexcept;

struct BnbNode {
  int id = -1;
  int parent = -1;
  int depth = 0;
  int branch_var = -1;     ///< variable the parent branched on (-1 for root)
  bool branch_up = false;  ///< true: lower bound was raised (ceil side)
  /// Slot of BnbSolver's B⁻¹ store that holds the parent's final inverse of
  /// `warm_basis` (-1: none, the warm start refactorizes), and that
  /// inverse's eta updates since its last refactorization.
  int inverse_slot = -1;
  int inverse_etas = 0;
  NodeState state = NodeState::Active;
  double bound = -1e300;   ///< parent LP objective (min form): lower bound
  linalg::Vector lb, ub;   ///< full standard-form bound vectors of this node
  lp::Basis warm_basis;    ///< parent's optimal basis for warm starting
  /// Parent's primal/dual iterates when the parent was solved by PDHG
  /// (basis-free): the first-order warm-start currency. Empty otherwise.
  linalg::Vector warm_x, warm_y;
  double lp_objective = 0.0;  ///< set when evaluated
};

/// Node-selection policies (paper section 5.3 argues for a GPU-aware one).
enum class NodeSelection {
  BestFirst,   ///< lowest bound first (default CPU-solver policy)
  DepthFirst,  ///< LIFO dive
  /// Prefer a child of the most recently evaluated node when its bound is
  /// within `locality_slack` of the best bound; otherwise best-first.
  /// Maximizes device-resident matrix/basis reuse between consecutive LP
  /// solves (fewer host<->device transfers and refactorizations).
  GpuLocality,
};

const char* node_selection_name(NodeSelection policy) noexcept;

/// Aggregate tree statistics (the data behind Figure 1).
struct TreeAnatomy {
  long branched = 0;
  long feasible_leaves = 0;
  long infeasible_leaves = 0;
  long pruned_leaves = 0;
  long active_peak = 0;
  int max_depth = 0;
  long total_nodes = 0;

  long leaves() const noexcept { return feasible_leaves + infeasible_leaves + pruned_leaves; }
};

/// Stores every node ever created (for anatomy/rendering) plus the active
/// frontier under a selection policy.
class NodePool {
 public:
  /// One live frontier node in the best-first heap. Its key is (bound,
  /// slot): the lowest bound wins, and among equal bounds the lowest slot
  /// of the frontier list does, which is the node a front-to-back scan of
  /// that list would pick first. Siblings share a bound, so ties are common.
  struct HeapEntry {
    double bound;  ///< the node's bound, fixed while the node is active
    int slot;      ///< its position in frontier_slots()
    int id;
  };

  explicit NodePool(NodeSelection policy = NodeSelection::BestFirst,
                    double locality_slack = 0.1);

  /// Adds a node (takes ownership); returns its id. The node becomes active.
  int push(BnbNode node);

  /// Pops the next node to evaluate per the policy. `last_evaluated` is the
  /// id of the node whose LP was just solved (-1 initially); the GpuLocality
  /// policy uses it. `best_known` is the incumbent objective (min form) used
  /// by GpuLocality's slack test. Returns -1 when the frontier is empty.
  int pop(int last_evaluated, double best_known);

  bool active_empty() const noexcept { return heap_.empty(); }
  std::size_t active_size() const noexcept { return heap_.size(); }

  /// Lowest bound among active nodes (the global dual bound), min form;
  /// 1e300 when none is lower. O(1): the heap's top.
  double best_active_bound() const noexcept;

  BnbNode& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  const BnbNode& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  int size() const noexcept { return static_cast<int>(nodes_.size()); }

  /// Re-tags a node and maintains anatomy counters. A node leaving the
  /// active state drops its warm-start data (basis, PDHG iterates) and
  /// leaves the heap.
  void set_state(int id, NodeState state);

  /// Ids of currently active nodes (a consistent snapshot's frontier).
  std::vector<int> active_ids() const;

  /// Removes all active nodes whose bound is >= cutoff (they become
  /// PrunedLeaf); returns how many were pruned.
  long prune_worse_than(double cutoff);

  const TreeAnatomy& anatomy() const noexcept { return anatomy_; }

  /// The frontier list, stale entries included, and the heap over its live
  /// entries (check::check_tree validates both).
  std::span<const int> frontier_slots() const noexcept { return active_; }
  std::span<const HeapEntry> frontier_heap() const noexcept { return heap_; }

  /// ASCII rendering of the tree (small trees; Figure 1 reproduction).
  std::string render_ascii(int max_nodes = 200) const;

 private:
  /// Removes active_[pos] (pop's choice) from the frontier list and heap.
  void take(std::size_t pos);
  /// Heap primitives: `place` writes an entry and its index, `sift_up` and
  /// `sift_down` restore the order around index i, `heap_remove` deletes the
  /// entry at index i.
  void place(std::size_t i, const HeapEntry& e);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_remove(std::size_t i);

  NodeSelection policy_;
  double locality_slack_;
  std::vector<BnbNode> nodes_;
  /// Frontier ids in push order, except that a pop moves the last entry
  /// into the popped one's slot. Entries of nodes that left the active
  /// state without a pop stay until pop drops them from the back or
  /// prune_worse_than compacts the list. DepthFirst and GpuLocality scan it
  /// from the back; the slot order is the best-first tie-break.
  std::vector<int> active_;
  /// Binary min-heap of the live entries of active_, keyed on (bound, slot),
  /// under every policy: best-first pops its top, and best_active_bound
  /// reads it.
  std::vector<HeapEntry> heap_;
  std::vector<int> heap_index_;  ///< by node id: index in heap_, -1 when not in it
  TreeAnatomy anatomy_;
};

}  // namespace gpumip::mip
