// Consistent snapshots of the branch-and-bound search (paper section 2.1).
//
// A consistent snapshot is a set of frontier nodes (given by their bound
// vectors) plus the incumbent, such that re-solving from exactly those
// nodes preserves the optimal solution. Sequentially this is just the
// active set between node evaluations; in a parallel run the supervisor
// must additionally account for in-flight and in-transit nodes (see
// parallel/supervisor.hpp). Snapshots serialize to a portable text format
// for checkpoint/restart.
//
// In memory a frontier node also carries the optimal basis of its parent,
// so a resumed node (a subproblem shipped to a supervised worker) starts
// with a dual-simplex warm start instead of a cold primal solve. The text
// format stays bounds-only: a node resumed from a checkpoint file has an
// empty basis and cold-starts. A resumed node is not the root: it runs the
// rounding and diving heuristics inside its own bounds, and it does not
// set MipStats::root_bound.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "lp/basis.hpp"

namespace gpumip::mip {

struct SnapshotNode {
  linalg::Vector lb, ub;  ///< full standard-form bound vectors
  double bound = -1e300;  ///< known lower bound (min form)
  int depth = 0;
  /// Parent's optimal basis, fully structural (every index < num_vars);
  /// empty = cold start. Not serialized.
  lp::Basis basis = {};
};

struct ConsistentSnapshot {
  double incumbent_objective = 1e300;  ///< min form; 1e300 = none
  linalg::Vector incumbent_x;          ///< structural variables
  std::vector<SnapshotNode> frontier;
  long nodes_solved_so_far = 0;

  bool has_incumbent() const noexcept { return incumbent_objective < 1e299; }

  void serialize(std::ostream& out) const;
  [[nodiscard]] static ConsistentSnapshot deserialize(std::istream& in);

  /// Round-trip convenience for tests.
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static ConsistentSnapshot from_string(const std::string& text);
};

}  // namespace gpumip::mip
