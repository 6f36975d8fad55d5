// Branch-and-bound engines for permutation flow-shop:
//
//  * solve_flowshop_cpu  — classic explicit-node DFS (the "linked list"
//    representation the IVM work contrasts against),
//  * solve_flowshop_gpu  — strategy S1, entirely-GPU: a fleet of IVMs lives
//    in device memory, each simulation step launches decode/bound/advance
//    kernels over all active IVMs, idle IVMs steal intervals on-device, and
//    the host only sees the initial upload and the final result download.
//
// Every engine starts from the greedy sequence's makespan as its incumbent.
// Both return identical optima; the benches compare their timelines.
#pragma once

#include "gpu/device.hpp"
#include "ivm/flowshop.hpp"
#include "ivm/ivm.hpp"

namespace gpumip::ivm {

struct BnbStats {
  long nodes_bounded = 0;
  long nodes_pruned = 0;
  long leaves_evaluated = 0;
  long steals = 0;
  long kernel_waves = 0;     ///< GPU engine: lockstep kernel iterations
  double best_makespan = 0;
  std::vector<int> best_permutation;
};

struct GpuBnbOptions {
  int num_ivms = 64;  ///< IVMs resident on the device
};

/// Explicit-node DFS on the host.
BnbStats solve_flowshop_cpu(const FlowshopInstance& instance);

/// IVM DFS on the host (same traversal as the GPU engine, single cursor) —
/// isolates the data-structure effect from the parallelism effect.
BnbStats solve_flowshop_ivm_host(const FlowshopInstance& instance);

/// Entirely-GPU IVM engine on the simulated device.
BnbStats solve_flowshop_gpu(const FlowshopInstance& instance, gpu::Device& device,
                            const GpuBnbOptions& options = {});

}  // namespace gpumip::ivm
