#include "ivm/gpu_bnb.hpp"

#include <algorithm>

#include "linalg/device_blas.hpp"

namespace gpumip::ivm {

namespace {

/// Safety valve on the GPU engine's kernel waves.
constexpr long kMaxWaves = 1000000;

/// Cost of one decode+bound evaluation (flops ~ machines x jobs).
double bound_flops(const FlowshopInstance& inst) {
  return 4.0 * static_cast<double>(inst.machines) * inst.jobs;
}

}  // namespace

BnbStats solve_flowshop_cpu(const FlowshopInstance& instance) {
  BnbStats stats;
  std::vector<int> best_perm = instance.greedy_sequence();
  double best = instance.makespan(best_perm);

  // Explicit node objects on a stack: each holds its whole prefix (the
  // linked-list-style representation IVM replaces).
  struct Node {
    std::vector<int> prefix;
    std::vector<bool> used;
  };
  std::vector<Node> stack;
  stack.push_back({{}, std::vector<bool>(static_cast<std::size_t>(instance.jobs), false)});
  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    ++stats.nodes_bounded;
    const double bound = instance.lower_bound(node.prefix);
    if (bound >= best) {
      ++stats.nodes_pruned;
      continue;
    }
    if (static_cast<int>(node.prefix.size()) == instance.jobs) {
      ++stats.leaves_evaluated;
      if (bound < best) {
        best = bound;
        best_perm = node.prefix;
      }
      continue;
    }
    // Children in reverse job order so traversal matches ascending DFS.
    for (int j = instance.jobs - 1; j >= 0; --j) {
      if (node.used[static_cast<std::size_t>(j)]) continue;
      Node child = node;
      child.prefix.push_back(j);
      child.used[static_cast<std::size_t>(j)] = true;
      stack.push_back(std::move(child));
    }
  }
  stats.best_makespan = best;
  stats.best_permutation = std::move(best_perm);
  return stats;
}

namespace {

/// Shared IVM traversal step: bounds the current prefix, descends or
/// advances, updates the incumbent. Returns the number of nodes bounded.
template <typename OnLeaf>
long ivm_step(Ivm& ivm, const FlowshopInstance& inst, double& best, OnLeaf&& on_leaf,
              BnbStats& stats) {
  if (ivm.exhausted()) return 0;
  const std::vector<int> prefix = ivm.prefix();
  const double bound = inst.lower_bound(prefix);
  ++stats.nodes_bounded;
  if (ivm.at_leaf()) {
    ++stats.leaves_evaluated;
    if (bound < best) {
      best = bound;
      on_leaf(prefix);
    }
    ivm.advance();
  } else if (bound >= best) {
    ++stats.nodes_pruned;
    ivm.advance();
  } else {
    ivm.descend();
  }
  return 1;
}

}  // namespace

BnbStats solve_flowshop_ivm_host(const FlowshopInstance& instance) {
  BnbStats stats;
  std::vector<int> best_perm = instance.greedy_sequence();
  double best = instance.makespan(best_perm);
  Ivm ivm(instance.jobs, 0, Factoradic::factorial(instance.jobs));
  while (!ivm.exhausted()) {
    ivm_step(ivm, instance, best, [&](const std::vector<int>& perm) { best_perm = perm; },
             stats);
  }
  stats.best_makespan = best;
  stats.best_permutation = std::move(best_perm);
  return stats;
}

BnbStats solve_flowshop_gpu(const FlowshopInstance& instance, gpu::Device& device,
                            const GpuBnbOptions& options) {
  check_arg(options.num_ivms > 0, "gpu bnb: need at least one IVM");
  BnbStats stats;
  const int n = instance.jobs;

  // Device residency: the instance matrix, the IVM fleet (position + end
  // vectors as integers), and an incumbent cell. Capacity is accounted; the
  // point of S1 is that NOTHING else crosses the PCIe bus during search.
  gpu::DeviceBuffer d_instance =
      device.alloc(instance.processing.size() * sizeof(double), "fs.instance");
  device.copy_h2d(0, d_instance, instance.processing.data(),
                  instance.processing.size() * sizeof(double));
  gpu::DeviceBuffer d_ivms = device.alloc(
      static_cast<std::size_t>(options.num_ivms) * (static_cast<std::size_t>(n) + 2) *
          sizeof(std::uint64_t),
      "fs.ivms");
  gpu::DeviceBuffer d_best = device.alloc(sizeof(double) + static_cast<std::size_t>(n) * sizeof(int),
                                          "fs.best");

  std::vector<int> best_perm = instance.greedy_sequence();
  double best = instance.makespan(best_perm);

  // The fleet: initial static partition of [0, n!) into num_ivms intervals.
  const std::uint64_t total = Factoradic::factorial(n);
  std::vector<Ivm> fleet;
  const std::uint64_t chunk = std::max<std::uint64_t>(1, total / static_cast<std::uint64_t>(options.num_ivms));
  for (int i = 0; i < options.num_ivms; ++i) {
    const std::uint64_t begin = std::min<std::uint64_t>(total, chunk * static_cast<std::uint64_t>(i));
    const std::uint64_t end =
        i + 1 == options.num_ivms ? total : std::min<std::uint64_t>(total, chunk * (static_cast<std::uint64_t>(i) + 1));
    if (begin < end) fleet.emplace_back(n, begin, end);
  }

  long waves = 0;
  while (waves < kMaxWaves) {
    ++waves;
    // --- one kernel wave: decode + bound + branch for every active IVM ---
    int active = 0;
    for (Ivm& ivm : fleet) {
      if (!ivm.exhausted()) ++active;
    }
    if (active == 0) break;
    gpu::KernelCost cost;
    cost.flops = bound_flops(instance) * active;
    cost.bytes = static_cast<double>(active) * (n + 2) * sizeof(std::uint64_t) * 2 +
                 static_cast<double>(instance.processing.size()) * sizeof(double);
    // Divergence: IVMs at different depths / prune decisions diverge within
    // a warp — the central SIMD concern of section 3 strategy 1.
    cost.divergence = 0.5;
    cost.occupancy = linalg::occupancy_for_elements(
        static_cast<std::size_t>(active) * static_cast<std::size_t>(n) * 32);
    device.launch(0, cost, [&] {
      for (Ivm& ivm : fleet) {
        ivm_step(ivm, instance, best,
                 [&](const std::vector<int>& perm) { best_perm = perm; }, stats);
      }
    });
    // --- on-device work stealing for idle IVMs ---
    for (Ivm& ivm : fleet) {
      if (!ivm.exhausted()) continue;
      // Victim: the IVM with the largest remaining interval.
      Ivm* victim = nullptr;
      std::uint64_t largest = 1;
      for (Ivm& other : fleet) {
        if (!other.exhausted() && other.remaining() > largest) {
          largest = other.remaining();
          victim = &other;
        }
      }
      if (victim == nullptr) continue;
      gpu::KernelCost steal_cost;
      steal_cost.flops = 64;
      steal_cost.bytes = 2.0 * (n + 2) * sizeof(std::uint64_t);
      steal_cost.occupancy = 1.0 / 1024.0;
      device.launch(0, steal_cost, [&] {
        ivm = victim->split();
        ++stats.steals;
      });
    }
  }
  stats.kernel_waves = waves;

  // Final download: incumbent value + permutation (one small D2H).
  std::vector<std::byte> result_host(d_best.size_bytes());
  device.copy_d2h(0, d_best, result_host.data(), result_host.size());
  device.synchronize();

  stats.best_makespan = best;
  stats.best_permutation = std::move(best_perm);
  return stats;
}

}  // namespace gpumip::ivm
