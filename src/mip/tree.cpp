#include "mip/tree.hpp"

#include <algorithm>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"

namespace gpumip::mip {

const char* node_state_name(NodeState state) noexcept {
  switch (state) {
    case NodeState::Active: return "active";
    case NodeState::Branched: return "branched";
    case NodeState::FeasibleLeaf: return "feasible";
    case NodeState::InfeasibleLeaf: return "infeasible";
    case NodeState::PrunedLeaf: return "pruned";
  }
  return "?";
}

const char* node_selection_name(NodeSelection policy) noexcept {
  switch (policy) {
    case NodeSelection::BestFirst: return "best-first";
    case NodeSelection::DepthFirst: return "depth-first";
    case NodeSelection::GpuLocality: return "gpu-locality";
  }
  return "?";
}

NodePool::NodePool(NodeSelection policy, double locality_slack)
    : policy_(policy), locality_slack_(locality_slack) {}

int NodePool::push(BnbNode node) {
  GPUMIP_ASSERT(node.parent >= -1 && node.parent < static_cast<int>(nodes_.size()),
                "push: parent id out of range");
  GPUMIP_ASSERT(node.parent < 0 ||
                    nodes_[static_cast<std::size_t>(node.parent)].state == NodeState::Branched,
                "push: child of a parent that never branched (orphan)");
  GPUMIP_ASSERT(node.parent < 0 ||
                    node.bound + 1e-9 >= nodes_[static_cast<std::size_t>(node.parent)].bound,
                "push: child bound regresses below parent bound");
  GPUMIP_ASSERT(node.lb.size() == node.ub.size(), "push: lb/ub size mismatch");
  node.id = static_cast<int>(nodes_.size());
  node.state = NodeState::Active;
  const int id = node.id;
  anatomy_.max_depth = std::max(anatomy_.max_depth, node.depth);
  ++anatomy_.total_nodes;
  nodes_.push_back(std::move(node));
  active_.push_back(id);
  ++active_count_;
  anatomy_.active_peak = std::max<long>(anatomy_.active_peak, static_cast<long>(active_count_));
  GPUMIP_OBS_COUNT("gpumip.mip.tree.pushed");
  GPUMIP_TRACE_INSTANT("gpumip.mip.node.pushed", id);
  GPUMIP_OBS_GAUGE_MAX("gpumip.mip.tree.depth_max", static_cast<double>(anatomy_.max_depth));
  GPUMIP_OBS_GAUGE_MAX("gpumip.mip.tree.frontier_peak", static_cast<double>(anatomy_.active_peak));
  return id;
}

namespace {
/// Removes the element at `pos` from a vector in O(1) (order not preserved).
void swap_erase(std::vector<int>& v, std::size_t pos) {
  v[pos] = v.back();
  v.pop_back();
}
}  // namespace

int NodePool::pop(int last_evaluated, double best_known) {
  // Lazily drop stale entries (nodes re-tagged by prune_worse_than).
  while (!active_.empty() && nodes_[static_cast<std::size_t>(active_.back())].state != NodeState::Active) {
    active_.pop_back();
  }
  if (active_.empty()) return -1;

  auto live = [&](std::size_t pos) {
    return nodes_[static_cast<std::size_t>(active_[pos])].state == NodeState::Active;
  };

  std::size_t chosen = active_.size();  // sentinel
  switch (policy_) {
    case NodeSelection::DepthFirst: {
      for (std::size_t i = active_.size(); i-- > 0;) {
        if (live(i)) {
          chosen = i;
          break;
        }
      }
      break;
    }
    case NodeSelection::GpuLocality: {
      // A child of the last evaluated node keeps the device-resident matrix
      // and factorization hot; take one if its bound is close enough to the
      // best active bound (relative slack).
      const double best_bound = best_active_bound();
      const double slack = locality_slack_ * (1.0 + std::min(std::abs(best_bound),
                                                             std::abs(best_known)));
      for (std::size_t i = active_.size(); i-- > 0;) {
        if (!live(i)) continue;
        const BnbNode& n = nodes_[static_cast<std::size_t>(active_[i])];
        if (n.parent == last_evaluated && n.bound <= best_bound + slack &&
            n.bound < best_known) {
          chosen = i;
          break;
        }
      }
      if (chosen != active_.size()) break;
      [[fallthrough]];
    }
    case NodeSelection::BestFirst: {
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
  swap_erase(active_, chosen);
  --active_count_;
  return id;
}

double NodePool::best_active_bound() const {
  double best = 1e300;
  for (int id : active_) {
    const BnbNode& n = nodes_[static_cast<std::size_t>(id)];
    if (n.state == NodeState::Active) best = std::min(best, n.bound);
  }
  return best;
}

void NodePool::set_state(int id, NodeState state) {
  GPUMIP_ASSERT(id >= 0 && id < static_cast<int>(nodes_.size()), "set_state: id out of range");
  BnbNode& n = nodes_[static_cast<std::size_t>(id)];
  check_internal(n.state == NodeState::Active || state != NodeState::Active,
                 "cannot re-activate a finished node");
  n.state = state;
  if (state != NodeState::Active) {
    // A finished node is never solved again: release its warm start.
    n.warm_basis = {};
    n.warm_x = {};
    n.warm_y = {};
  }
  switch (state) {
    case NodeState::Branched: ++anatomy_.branched; break;
    case NodeState::FeasibleLeaf: ++anatomy_.feasible_leaves; break;
    case NodeState::InfeasibleLeaf: ++anatomy_.infeasible_leaves; break;
    case NodeState::PrunedLeaf: ++anatomy_.pruned_leaves; break;
    case NodeState::Active: break;
  }
}

std::vector<int> NodePool::active_ids() const {
  std::vector<int> out;
  for (int id : active_) {
    if (nodes_[static_cast<std::size_t>(id)].state == NodeState::Active) out.push_back(id);
  }
  return out;
}

long NodePool::prune_worse_than(double cutoff) {
  long pruned = 0;
  for (int id : active_) {
    BnbNode& n = nodes_[static_cast<std::size_t>(id)];
    if (n.state == NodeState::Active && n.bound >= cutoff) {
      set_state(id, NodeState::PrunedLeaf);
      GPUMIP_TRACE_INSTANT("gpumip.mip.node.pruned", id);
      ++pruned;
    }
  }
  if (pruned > 0) {
    std::erase_if(active_, [&](int id) {
      return nodes_[static_cast<std::size_t>(id)].state != NodeState::Active;
    });
    active_count_ = active_.size();
    GPUMIP_OBS_ADD("gpumip.mip.tree.pruned", static_cast<std::uint64_t>(pruned));
  }
  return pruned;
}

std::string NodePool::render_ascii(int max_nodes) const {
  std::ostringstream out;
  // children adjacency
  std::vector<std::vector<int>> children(nodes_.size());
  int root = -1;
  for (const BnbNode& n : nodes_) {
    if (n.parent >= 0) {
      children[static_cast<std::size_t>(n.parent)].push_back(n.id);
    } else {
      root = n.id;
    }
  }
  if (root < 0) return "(empty tree)\n";
  int printed = 0;
  // Depth-first with prefix rendering.
  struct Item {
    int id;
    std::string prefix;
    bool last;
  };
  std::vector<Item> stack = {{root, "", true}};
  while (!stack.empty() && printed < max_nodes) {
    const Item item = stack.back();
    stack.pop_back();
    const BnbNode& n = nodes_[static_cast<std::size_t>(item.id)];
    out << item.prefix;
    if (n.parent >= 0) out << (item.last ? "`-- " : "|-- ");
    out << "#" << n.id << " [" << node_state_name(n.state) << "]";
    if (n.branch_var >= 0) {
      out << " x" << n.branch_var << (n.branch_up ? ">=" : "<=")
          << (n.branch_up ? n.lb[static_cast<std::size_t>(n.branch_var)]
                          : n.ub[static_cast<std::size_t>(n.branch_var)]);
    }
    if (n.state != NodeState::Active && n.state != NodeState::InfeasibleLeaf) {
      out << " lp=" << n.lp_objective;
    }
    out << "\n";
    ++printed;
    const std::string child_prefix =
        item.prefix + (n.parent >= 0 ? (item.last ? "    " : "|   ") : "");
    const auto& kids = children[static_cast<std::size_t>(item.id)];
    for (std::size_t i = kids.size(); i-- > 0;) {
      stack.push_back({kids[i], child_prefix, i + 1 == kids.size()});
    }
  }
  if (printed >= max_nodes) out << "... (truncated)\n";
  return out.str();
}

}  // namespace gpumip::mip
