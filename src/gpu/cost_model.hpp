// Device cost model.
//
// The simulator prices every device operation (kernel launch, host<->device
// transfer, device<->device message) in simulated seconds from a small set
// of architectural parameters. Absolute values are calibrated loosely to a
// V100-class accelerator (the paper's Summit reference); what the
// experiments depend on is the *ratios* the paper reasons about:
//
//   * dense SIMD kernels approach peak; sparse/divergent kernels do not
//     (paper section 5.4),
//   * a host<->device round trip has a fixed latency floor, so chatty
//     transfer patterns lose (sections 4.3, 5.2, 5.3),
//   * one small LP cannot fill the device; batched launches can
//     (section 5.5).
#pragma once

#include <cstdint>

namespace gpumip::gpu {

/// Architectural parameters of one simulated accelerator.
struct CostModelConfig {
  // Compute.
  double dense_flops = 7.0e12;      ///< effective fp64 throughput, dense kernels
  double sparse_efficiency = 0.06;  ///< fraction of dense_flops sparse kernels reach
  double mem_bandwidth = 0.9e12;    ///< device memory bytes/s
  double launch_overhead = 5.0e-6;  ///< fixed seconds per kernel launch
  double divergence_penalty = 3.0;  ///< slowdown multiplier at full divergence
  int parallel_slots = 16;          ///< kernels that can overlap across streams

  // Host link (PCIe/NVLink class).
  double pcie_latency = 10.0e-6;    ///< seconds per transfer
  double pcie_bandwidth = 24.0e9;   ///< bytes/s

  // Capacity.
  std::uint64_t memory_bytes = 16ull << 30;  ///< device memory capacity

  /// Scales compute/bandwidth while keeping latencies; convenience for
  /// modelling weaker/stronger parts in ablations.
  CostModelConfig scaled(double factor) const;
};

/// Resource demand of one kernel launch, declared by the caller.
struct KernelCost {
  double flops = 0.0;       ///< useful floating-point operations
  double bytes = 0.0;       ///< device-memory traffic (read+write)
  double divergence = 0.0;  ///< 0 = uniform warps, 1 = fully divergent
  double occupancy = 1.0;   ///< fraction of the device this launch can fill
  bool sparse = false;      ///< true -> priced at sparse_efficiency

  /// Cost of a dense kernel touching `n` doubles with `flops` work.
  static KernelCost dense(double flops, double n_doubles);
  /// Cost of a sparse/irregular kernel.
  static KernelCost sparse_irregular(double flops, double n_doubles, double divergence = 0.6);
};

/// Seconds one kernel occupies its share of the device.
double kernel_seconds(const CostModelConfig& cfg, const KernelCost& cost);

/// Seconds to move `bytes` across the host link (one direction).
double transfer_seconds(const CostModelConfig& cfg, std::uint64_t bytes);

}  // namespace gpumip::gpu
