#include "mip/tree.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/obs.hpp"
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
  GPUMIP_ASSERT(!std::isnan(node.bound), "push: NaN bound (the heap needs a total order)");
  node.id = static_cast<int>(nodes_.size());
  node.state = NodeState::Active;
  const int id = node.id;
  anatomy_.max_depth = std::max(anatomy_.max_depth, node.depth);
  ++anatomy_.total_nodes;
  const double bound = node.bound;
  nodes_.push_back(std::move(node));
  active_.push_back(id);
  heap_index_.push_back(-1);
  heap_.push_back({bound, static_cast<int>(active_.size()) - 1, id});
  sift_up(heap_.size() - 1);
  anatomy_.active_peak = std::max<long>(anatomy_.active_peak, static_cast<long>(heap_.size()));
  GPUMIP_OBS_COUNT("gpumip.mip.tree.pushed");
  GPUMIP_OBS_GAUGE_MAX("gpumip.mip.tree.depth_max", static_cast<double>(anatomy_.max_depth));
  GPUMIP_OBS_GAUGE_MAX("gpumip.mip.tree.frontier_peak", static_cast<double>(anatomy_.active_peak));
  return id;
}

namespace {
/// Heap order: lower bound first, then lower frontier slot.
bool heap_less(const NodePool::HeapEntry& a, const NodePool::HeapEntry& b) {
  return a.bound < b.bound || (a.bound == b.bound && a.slot < b.slot);
}
}  // namespace

void NodePool::place(std::size_t i, const HeapEntry& e) {
  heap_[i] = e;
  heap_index_[static_cast<std::size_t>(e.id)] = static_cast<int>(i);
}

void NodePool::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void NodePool::sift_down(std::size_t i) {
  const HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void NodePool::heap_remove(std::size_t i) {
  heap_index_[static_cast<std::size_t>(heap_[i].id)] = -1;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  if (i > 0 && heap_less(last, heap_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void NodePool::take(std::size_t pos) {
  heap_remove(static_cast<std::size_t>(heap_index_[static_cast<std::size_t>(active_[pos])]));
  // The last entry moves into the freed slot: a lower slot, so its key
  // only falls.
  active_[pos] = active_.back();
  active_.pop_back();
  if (pos == active_.size()) return;
  const int h = heap_index_[static_cast<std::size_t>(active_[pos])];
  if (h >= 0) {
    heap_[static_cast<std::size_t>(h)].slot = static_cast<int>(pos);
    sift_up(static_cast<std::size_t>(h));
  }
}

int NodePool::pop(int last_evaluated, double best_known) {
  auto live = [&](std::size_t pos) {
    return heap_index_[static_cast<std::size_t>(active_[pos])] >= 0;
  };
  // Lazily drop stale entries (nodes re-tagged without a pop).
  while (!active_.empty() && !live(active_.size() - 1)) active_.pop_back();
  if (heap_.empty()) return -1;

  // Best-first's choice: the heap's top, the first slot with the lowest bound.
  std::size_t chosen = static_cast<std::size_t>(heap_.front().slot);
  switch (policy_) {
    case NodeSelection::DepthFirst:
      chosen = active_.size() - 1;  // live: stale entries were dropped above
      break;
    case NodeSelection::GpuLocality: {
      // A child of the last evaluated node keeps the device-resident matrix
      // and factorization hot; take one if its bound is close enough to the
      // best active bound (relative slack). Otherwise best-first.
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
      break;
    }
    case NodeSelection::BestFirst: break;
  }
  const int id = active_[chosen];
  take(chosen);
  return id;
}

double NodePool::best_active_bound() const noexcept {
  return heap_.empty() ? 1e300 : std::min(1e300, heap_.front().bound);
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
    const int h = heap_index_[static_cast<std::size_t>(id)];
    if (h >= 0) heap_remove(static_cast<std::size_t>(h));
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
    if (heap_index_[static_cast<std::size_t>(id)] >= 0) out.push_back(id);
  }
  return out;
}

long NodePool::prune_worse_than(double cutoff) {
  long pruned = 0;
  for (int id : active_) {
    const int h = heap_index_[static_cast<std::size_t>(id)];
    if (h >= 0 && heap_[static_cast<std::size_t>(h)].bound >= cutoff) {
      set_state(id, NodeState::PrunedLeaf);
      ++pruned;
    }
  }
  if (pruned > 0) {
    std::erase_if(active_, [&](int id) { return heap_index_[static_cast<std::size_t>(id)] < 0; });
    // Compaction keeps the slot order, so renumbering the slots keeps the
    // heap ordered.
    for (std::size_t pos = 0; pos < active_.size(); ++pos) {
      heap_[static_cast<std::size_t>(heap_index_[static_cast<std::size_t>(active_[pos])])].slot =
          static_cast<int>(pos);
    }
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
