// Direct tests of the node pool's selection policies, branching-variable
// selection and logging, corners not covered by the higher-level suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "linalg/matrix.hpp"
#include "mip/branching.hpp"
#include "mip/tree.hpp"
#include "support/assert.hpp"
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

/// NodePool's frontier before its heap: one linear scan of the frontier list
/// per pop and per bound query. The heap must reproduce it step for step.
class LinearScanFrontier {
 public:
  LinearScanFrontier(mip::NodeSelection policy, double slack) : policy_(policy), slack_(slack) {}

  void push(int id, int parent, double bound) {
    nodes_.resize(std::max(nodes_.size(), static_cast<std::size_t>(id) + 1));
    nodes_[static_cast<std::size_t>(id)] = {parent, bound, true};
    active_.push_back(id);
  }

  /// The node left the active state (set_state to any other state).
  void retire(int id) { nodes_[static_cast<std::size_t>(id)].active = false; }

  int pop(int last_evaluated, double best_known) {
    while (!active_.empty() && !live(active_.size() - 1)) active_.pop_back();
    if (active_.empty()) return -1;
    std::size_t chosen = active_.size();
    switch (policy_) {
      case mip::NodeSelection::DepthFirst:
        for (std::size_t i = active_.size(); i-- > 0;) {
          if (live(i)) {
            chosen = i;
            break;
          }
        }
        break;
      case mip::NodeSelection::GpuLocality: {
        const double best_bound = best_active_bound();
        const double slack =
            slack_ * (1.0 + std::min(std::abs(best_bound), std::abs(best_known)));
        for (std::size_t i = active_.size(); i-- > 0;) {
          if (!live(i)) continue;
          const Node& n = nodes_[static_cast<std::size_t>(active_[i])];
          if (n.parent == last_evaluated && n.bound <= best_bound + slack &&
              n.bound < best_known) {
            chosen = i;
            break;
          }
        }
        if (chosen != active_.size()) break;
        [[fallthrough]];
      }
      case mip::NodeSelection::BestFirst: {
        double best = 0.0;
        for (std::size_t i = 0; i < active_.size(); ++i) {
          if (!live(i)) continue;
          const double b = nodes_[static_cast<std::size_t>(active_[i])].bound;
          if (chosen == active_.size() || b < best) {
            best = b;
            chosen = i;
          }
        }
        break;
      }
    }
    if (chosen == active_.size()) return -1;
    const int id = active_[chosen];
    active_[chosen] = active_.back();
    active_.pop_back();
    nodes_[static_cast<std::size_t>(id)].active = false;
    return id;
  }

  double best_active_bound() const {
    double best = 1e300;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (live(i)) best = std::min(best, nodes_[static_cast<std::size_t>(active_[i])].bound);
    }
    return best;
  }

  long prune_worse_than(double cutoff) {
    long pruned = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      Node& n = nodes_[static_cast<std::size_t>(active_[i])];
      if (n.active && n.bound >= cutoff) {
        n.active = false;
        ++pruned;
      }
    }
    if (pruned > 0) {
      std::erase_if(active_, [&](int id) { return !nodes_[static_cast<std::size_t>(id)].active; });
    }
    return pruned;
  }

  std::vector<int> active_ids() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (live(i)) out.push_back(active_[i]);
    }
    return out;
  }

 private:
  struct Node {
    int parent = -1;
    double bound = 0.0;
    bool active = false;
  };
  bool live(std::size_t pos) const { return nodes_[static_cast<std::size_t>(active_[pos])].active; }

  mip::NodeSelection policy_;
  double slack_;
  std::vector<Node> nodes_;
  std::vector<int> active_;
};

TEST(NodePool, HeapPopsInLinearScanOrder) {
  // Seeded push / pop / set_state / prune_worse_than sequences with many
  // tied bounds (siblings share one, and a signed zero ties with +0.0).
  const double kBounds[] = {-0.0, 0.0, 1.0, 1.0, 2.0, 3.0};
  for (mip::NodeSelection policy : {mip::NodeSelection::BestFirst, mip::NodeSelection::DepthFirst,
                                    mip::NodeSelection::GpuLocality}) {
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(mip::node_selection_name(policy)) + " seed " +
                   std::to_string(seed));
      std::mt19937 rng(seed);
      auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
      mip::NodePool pool(policy, /*locality_slack=*/0.5);
      LinearScanFrontier ref(policy, 0.5);
      auto push = [&](int parent, double bound) {
        const int depth = parent < 0 ? 0 : pool.node(parent).depth + 1;
        const int id = pool.push(make_node(parent, bound, depth));
        ref.push(id, parent, bound);
      };
      int last = -1;
      double incumbent = 1e300;
      for (int r = 0; r < 3; ++r) push(-1, kBounds[pick(6)]);
      for (int step = 0; step < 3000; ++step) {
        const std::size_t op = pick(pool.active_size() > 300 ? 6 : 12);
        if (op < 5) {
          const int id = pool.pop(last, incumbent);
          ASSERT_EQ(id, ref.pop(last, incumbent)) << "step " << step;
          if (id < 0) {
            push(-1, kBounds[pick(6)]);
            continue;
          }
          last = id;
          const std::size_t fate = pick(4);
          if (fate < 2) {
            pool.set_state(id, mip::NodeState::Branched);
            const double bound = std::max(pool.node(id).bound, 0.0) + kBounds[pick(6)];
            push(id, bound);
            if (fate == 0) push(id, bound);
          } else {
            pool.set_state(id, fate == 2 ? mip::NodeState::FeasibleLeaf
                                         : mip::NodeState::InfeasibleLeaf);
          }
        } else if (op < 9) {
          push(-1, kBounds[pick(6)] + static_cast<double>(pick(4)));
        } else if (op < 11) {
          // A frontier node retired without a pop leaves a stale entry.
          const std::vector<int> ids = pool.active_ids();
          if (ids.empty()) continue;
          const int id = ids[pick(ids.size())];
          pool.set_state(id, mip::NodeState::PrunedLeaf);
          ref.retire(id);
        } else {
          incumbent = 1.0 + static_cast<double>(pick(6));
          ASSERT_EQ(pool.prune_worse_than(incumbent), ref.prune_worse_than(incumbent))
              << "step " << step;
        }
        ASSERT_EQ(pool.best_active_bound(), ref.best_active_bound()) << "step " << step;
        ASSERT_EQ(pool.active_ids(), ref.active_ids()) << "step " << step;
        ASSERT_EQ(pool.active_size(), ref.active_ids().size()) << "step " << step;
        if (step % 50 == 0) GPUMIP_VALIDATE(check::check_tree(pool));
      }
    }
  }
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
