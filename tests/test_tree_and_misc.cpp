// Direct tests of the node pool's selection policies, branching-variable
// selection and logging, corners not covered by the higher-level suites.
#include <gtest/gtest.h>

#include <vector>

#include "linalg/matrix.hpp"
#include "mip/branching.hpp"
#include "mip/tree.hpp"
#include "support/log.hpp"

namespace gpumip {
namespace {

using linalg::Vector;

mip::BnbNode make_node(int parent, double bound, int depth = 0) {
  mip::BnbNode node;
  node.parent = parent;
  node.bound = bound;
  node.depth = depth;
  node.lb = {0.0};
  node.ub = {1.0};
  return node;
}

TEST(NodePool, BestFirstPopsLowestBound) {
  mip::NodePool pool(mip::NodeSelection::BestFirst);
  pool.push(make_node(-1, 5.0));
  pool.push(make_node(-1, 1.0));
  pool.push(make_node(-1, 3.0));
  EXPECT_EQ(pool.node(pool.pop(-1, 1e300)).bound, 1.0);
  EXPECT_EQ(pool.node(pool.pop(-1, 1e300)).bound, 3.0);
  EXPECT_EQ(pool.node(pool.pop(-1, 1e300)).bound, 5.0);
  EXPECT_EQ(pool.pop(-1, 1e300), -1);
}

TEST(NodePool, DepthFirstPopsLifo) {
  mip::NodePool pool(mip::NodeSelection::DepthFirst);
  const int a = pool.push(make_node(-1, 1.0));
  const int b = pool.push(make_node(-1, 9.0));
  EXPECT_EQ(pool.pop(-1, 1e300), b);  // most recently pushed, despite worse bound
  EXPECT_EQ(pool.pop(-1, 1e300), a);
}

TEST(NodePool, GpuLocalityPrefersChildrenOfLastNode) {
  mip::NodePool pool(mip::NodeSelection::GpuLocality, /*locality_slack=*/0.5);
  const int root = pool.push(make_node(-1, 0.0));
  EXPECT_EQ(pool.pop(-1, 1e300), root);
  pool.set_state(root, mip::NodeState::Branched);
  pool.push(make_node(-1, 0.05));           // unrelated, slightly better bound
  const int child = pool.push(make_node(root, 0.3));
  // The child of the just-evaluated node wins despite its worse bound
  // (within the slack).
  EXPECT_EQ(pool.pop(root, 1e300), child);
}

TEST(NodePool, GpuLocalityFallsBackToBestFirst) {
  mip::NodePool pool(mip::NodeSelection::GpuLocality, 0.01);
  pool.push(make_node(-1, 0.0));
  pool.push(make_node(-1, 100.0));
  const int best = pool.push(make_node(-1, -5.0));
  // No active node is a child of `last`: locality finds nothing to reuse and
  // must fall back to plain best-first selection.
  EXPECT_EQ(pool.pop(/*last=*/99, 1e300), best);
}

TEST(NodePool, PruneWorseThanRetagsAndCounts) {
  mip::NodePool pool(mip::NodeSelection::BestFirst);
  pool.push(make_node(-1, 1.0));
  pool.push(make_node(-1, 10.0));
  pool.push(make_node(-1, 20.0));
  EXPECT_EQ(pool.prune_worse_than(5.0), 2);
  EXPECT_EQ(pool.anatomy().pruned_leaves, 2);
  EXPECT_EQ(pool.active_size(), 1u);
  const int left = pool.pop(-1, 1e300);
  EXPECT_EQ(pool.node(left).bound, 1.0);
}

TEST(NodePool, AnatomyTracksPeakAndDepth) {
  mip::NodePool pool(mip::NodeSelection::BestFirst);
  pool.push(make_node(-1, 0.0, 0));
  pool.push(make_node(-1, 1.0, 3));
  EXPECT_EQ(pool.anatomy().active_peak, 2);
  EXPECT_EQ(pool.anatomy().max_depth, 3);
  EXPECT_EQ(pool.anatomy().total_nodes, 2);
}

TEST(NodePool, RenderHandlesEmptyAndTruncation) {
  mip::NodePool pool(mip::NodeSelection::BestFirst);
  EXPECT_NE(pool.render_ascii().find("empty"), std::string::npos);
  const int root = pool.push(make_node(-1, 0.0));
  ASSERT_EQ(pool.pop(-1, 1e300), root);
  pool.set_state(root, mip::NodeState::Branched);
  for (int i = 0; i < 5; ++i) pool.push(make_node(root, 1.0));
  const std::string art = pool.render_ascii(/*max_nodes=*/3);
  EXPECT_NE(art.find("truncated"), std::string::npos);
}

TEST(NodePool, NamesForEnums) {
  EXPECT_STREQ(mip::node_state_name(mip::NodeState::PrunedLeaf), "pruned");
  EXPECT_STREQ(mip::node_selection_name(mip::NodeSelection::GpuLocality), "gpu-locality");
}

TEST(Branching, MostFractionalTieGoesToLowestIndex) {
  const std::vector<bool> integer = {true, true, false, true, true};
  // x1 and x4 tie at distance 0.5; continuous x2 is never a candidate.
  EXPECT_EQ(mip::select_branch_var(Vector{0.2, 1.5, 0.5, 2.0, 3.5}, integer, 1e-6), 1);
  EXPECT_EQ(mip::select_branch_var(Vector{0.2, 1.1, 0.5, 2.7, 3.0}, integer, 1e-6), 3);
  // Integral within int_tol: nothing to branch on.
  EXPECT_EQ(mip::select_branch_var(Vector{0.0, 1.0, 0.5, 2.0 + 1e-7, 3.0}, integer, 1e-6), -1);
}

TEST(Log, DisabledLevelSkipsEvaluation) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Error);
  int evaluations = 0;
  GPUMIP_LOG(Debug) << (++evaluations, "never shown");
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::Debug);
  GPUMIP_LOG(Debug) << (++evaluations, "shown");
  EXPECT_EQ(evaluations, 1);
  set_log_level(saved);
}

}  // namespace
}  // namespace gpumip
