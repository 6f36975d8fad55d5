#include "parallel/strategies.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/device_blas.hpp"

namespace gpumip::parallel {

const char* strategy_name(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::S1_GpuOnly: return "S1-gpu-only";
    case Strategy::S2_CpuOrchestrated: return "S2-cpu-orchestrated";
    case Strategy::S3_Hybrid: return "S3-hybrid";
    case Strategy::S4_BigMip: return "S4-big-mip";
  }
  return "?";
}

std::uint64_t lp_device_footprint(const lp::StandardForm& form) {
  return lp::dense_lp_device_bytes(form.num_rows, form.num_vars);
}

namespace {

/// Per-node host-side tree handling cost (pop, bound bookkeeping, child
/// creation: ~copies of the bound vectors).
double tree_op_seconds(const lp::CpuCostModel& cpu, int num_vars) {
  return 6.0 * static_cast<double>(num_vars) / cpu.flops + 3.0 * cpu.per_op_overhead;
}

/// Refactorizations the device replay charges for `node`: what the host
/// ran, plus one when the node inherited its parent's inverse while another
/// node's was device-resident (the device keeps only the resident basis).
long device_refactors(const mip::NodeTrace& node) {
  return node.ops.refactor + (node.inherited && !node.hot ? 1 : 0);
}

/// Gathers transfer/kernels/peak-memory counters from a device.
void harvest(const gpu::Device& device, StrategyReport& report) {
  const auto& stats = device.stats();
  report.bytes_h2d += stats.bytes_h2d;
  report.bytes_d2h += stats.bytes_d2h;
  report.transfers += stats.transfers_h2d + stats.transfers_d2h;
  report.device_peak_bytes = std::max(report.device_peak_bytes, stats.peak_allocated_bytes);
}

/// S1: whole search resident on one device.
void replay_s1(const mip::BnbSolver& solver, const lp::StandardForm& form,
               const StrategyConfig& config, StrategyReport& report) {
  // Without a CPU orchestrator every kernel is device-launched (dynamic-
  // parallelism style), which roughly doubles the launch latency — one more
  // face of the SIMD/MIMD mismatch of section 3.
  gpu::CostModelConfig s1_config = config.device;
  s1_config.launch_overhead *= 2.0;
  gpu::Device device(s1_config);
  try {
    // Residency: LP matrix + basis inverse + the tree at its peak width.
    auto matrix_buf = device.alloc(lp_device_footprint(form), "s1.lp");
    const std::uint64_t node_bytes =
        2ull * static_cast<std::uint64_t>(form.num_vars) * sizeof(double)  // bounds
        + static_cast<std::uint64_t>(form.num_rows) * sizeof(int)          // basis heads
        + static_cast<std::uint64_t>(form.num_vars);                       // statuses
    const long peak = std::max<long>(1, solver.pool().anatomy().active_peak);
    auto tree_buf = device.alloc(static_cast<std::uint64_t>(peak) * node_bytes, "s1.tree");

    // One upload (model), then everything on-device.
    std::vector<double> model_image(static_cast<std::size_t>(form.num_rows) + 1, 0.0);
    device.copy_h2d(0, matrix_buf, model_image.data(), model_image.size() * sizeof(double));

    for (const mip::NodeTrace& node : solver.trace()) {
      // Tree manipulation as a divergent, low-occupancy kernel (the SIMD
      // mismatch of section 3, strategy 1).
      gpu::KernelCost tree_cost;
      tree_cost.flops = 8.0 * form.num_vars;
      tree_cost.bytes = static_cast<double>(node_bytes);
      tree_cost.divergence = 0.9;
      tree_cost.occupancy = 1.0 / 1024.0;
      device.launch(0, tree_cost, {});
      // With no CPU orchestrator, the simplex control flow (entering/
      // leaving selection, ratio-test decisions) also runs on the device:
      // two extra divergent micro-kernels per iteration. This is the
      // concrete price of the SIMD/MIMD mismatch that made GPU-only ports
      // of CPU solvers fare poorly (section 2.3).
      gpu::KernelCost control;
      control.flops = 32.0;
      control.bytes = 256.0;
      control.divergence = 1.0;
      control.occupancy = 1.0 / 1024.0;
      device.launch_n(0, control, 2 * std::max<long>(node.ops.iterations, 1));
      lp::LpOpStats ops = node.ops;
      ops.refactor = device_refactors(node);
      lp::charge_to_device(device, 0, ops, /*sparse_pricing=*/false);
    }
    // Result download.
    std::vector<double> solution(static_cast<std::size_t>(form.num_struct), 0.0);
    device.copy_d2h(0, matrix_buf, solution.data(), solution.size() * sizeof(double));
    report.device_seconds = device.synchronize();
    report.sim_seconds = report.device_seconds;
    report.completed = true;
  } catch (const DeviceOutOfMemory& oom) {
    report.completed = false;
    report.failure = oom.what();
    report.device_seconds = device.synchronize();
    report.sim_seconds = report.device_seconds;
  }
  harvest(device, report);
}

/// S2/S3: host tree, device LP. `overlap` selects hybrid overlap (S3).
void replay_s2_s3(const mip::BnbSolver& solver, const lp::StandardForm& form,
                  const StrategyConfig& config, bool overlap, StrategyReport& report) {
  gpu::Device device(config.device);
  try {
    auto lp_buf = device.alloc(lp_device_footprint(form), "s2.lp");

    // Matrix upload once.
    std::vector<double> matrix_image(
        static_cast<std::size_t>(form.num_rows) * form.num_vars, 0.0);
    device.copy_h2d(0, lp_buf, matrix_image.data(),
                    std::min(matrix_image.size() * sizeof(double),
                             static_cast<std::size_t>(lp_buf.size_bytes())));

    double host = 0.0;
    std::vector<double> bound_delta(2, 0.0);
    std::vector<double> full_bounds(2ull * static_cast<std::size_t>(form.num_vars), 0.0);
    std::vector<std::byte> basis_image(static_cast<std::size_t>(form.num_rows) * sizeof(int) +
                                       static_cast<std::size_t>(form.num_vars));

    for (const mip::NodeTrace& node : solver.trace()) {
      host += tree_op_seconds(config.cpu, form.num_vars);
      lp::LpOpStats ops = node.ops;
      ops.refactor = device_refactors(node);
      if (node.hot) {
        // The parent's basis is still resident: ship only the branched
        // bound change.
        device.copy_h2d(0, lp_buf, bound_delta.data(), bound_delta.size() * sizeof(double));
      } else {
        // Jump to a distant node: full bound vectors + basis reload.
        device.copy_h2d(0, lp_buf, full_bounds.data(), full_bounds.size() * sizeof(double));
        device.copy_h2d(0, lp_buf, basis_image.data(), basis_image.size());
      }
      lp::charge_to_device(device, 0, ops, /*sparse_pricing=*/false);
      // Objective/solution readback per node (small).
      double obj = 0.0;
      device.copy_d2h(0, lp_buf, &obj, sizeof(obj));
    }
    report.device_seconds = device.synchronize();
    report.host_seconds = host;
    report.sim_seconds = overlap ? std::max(report.device_seconds, host)
                                 : report.device_seconds + host;
    report.completed = true;
  } catch (const DeviceOutOfMemory& oom) {
    report.completed = false;
    report.failure = oom.what();
    report.device_seconds = device.synchronize();
    report.sim_seconds = report.device_seconds;
  }
  harvest(device, report);
}

/// S4: LP matrix column-partitioned over `devices`; each simplex iteration
/// is a distributed operation.
void replay_s4(const mip::BnbSolver& solver, const lp::StandardForm& form,
               const StrategyConfig& config, StrategyReport& report) {
  const int d = std::max(2, config.devices);
  std::vector<gpu::Device> devices;
  devices.reserve(static_cast<std::size_t>(d));
  for (int i = 0; i < d; ++i) devices.emplace_back(config.device, i);

  const std::uint64_t m = static_cast<std::uint64_t>(form.num_rows);
  const std::uint64_t n = static_cast<std::uint64_t>(form.num_vars);
  try {
    // Shard A by columns; device 0 additionally holds B⁻¹ and work vectors.
    const std::uint64_t cols_per_dev = (n + static_cast<std::uint64_t>(d) - 1) / d;
    std::vector<gpu::DeviceBuffer> shards;
    for (int i = 0; i < d; ++i) {
      shards.push_back(devices[static_cast<std::size_t>(i)].alloc(
          m * cols_per_dev * sizeof(double), "s4.shard"));
    }
    auto basis_buf = devices[0].alloc((m * m + 4 * (m + n)) * sizeof(double), "s4.basis");
    (void)basis_buf;

    // Upload each shard once.
    std::vector<double> shard_image(m * cols_per_dev, 0.0);
    for (int i = 0; i < d; ++i) {
      devices[static_cast<std::size_t>(i)].copy_h2d(
          0, shards[static_cast<std::size_t>(i)], shard_image.data(),
          shard_image.size() * sizeof(double));
    }

    // Analytic per-iteration critical path.
    const double mm = static_cast<double>(m);
    gpu::KernelCost basis_op = gpu::KernelCost::dense(2.0 * mm * mm, mm * mm);
    basis_op.occupancy = linalg::occupancy_for_elements(static_cast<std::size_t>(m * m));
    const double t_basis = gpu::kernel_seconds(config.device, basis_op);
    gpu::KernelCost price_op = gpu::KernelCost::dense(
        2.0 * mm * static_cast<double>(cols_per_dev), mm * static_cast<double>(cols_per_dev));
    price_op.occupancy =
        linalg::occupancy_for_elements(static_cast<std::size_t>(m * cols_per_dev));
    const double t_price = gpu::kernel_seconds(config.device, price_op);
    // Each broadcast/gather also costs a pair of device-side kernel
    // launches (pack/unpack or NCCL-style ring step) per hop.
    const double hop_overhead = 2.0 * config.device.launch_overhead;
    const double t_bcast =
        static_cast<double>(d - 1) *
        (config.interconnect.wire_time(m * sizeof(double)) + hop_overhead);
    const double t_gather =
        static_cast<double>(d - 1) *
        (config.interconnect.wire_time(2 * sizeof(double)) + hop_overhead);
    const double t_refactor =
        gpu::kernel_seconds(config.device, lp::refactor_kernel_cost(form.num_rows));

    double network = 0.0;
    double host = 0.0;
    double timeline = 0.0;
    double dev0_busy = 0.0;
    for (const mip::NodeTrace& node : solver.trace()) {
      host += tree_op_seconds(config.cpu, form.num_vars);
      // btran + bcast + parallel price + gather + ftran + eta update.
      const double iter_path = t_basis + t_bcast + t_price + t_gather + 2.0 * t_basis;
      const long iters = std::max<long>(node.ops.iterations, 1);
      const auto refactors = static_cast<double>(device_refactors(node));
      timeline += static_cast<double>(iters) * iter_path + refactors * t_refactor;
      dev0_busy += static_cast<double>(iters) * 3.0 * t_basis + refactors * t_refactor;
      network += static_cast<double>(iters) * (t_bcast + t_gather);
    }
    report.device_seconds = dev0_busy + static_cast<double>(solver.trace().size()) * t_price;
    report.network_seconds = network;
    report.host_seconds = host;
    report.sim_seconds = timeline + host;
    report.completed = true;
  } catch (const DeviceOutOfMemory& oom) {
    report.completed = false;
    report.failure = oom.what();
  }
  for (const gpu::Device& device : devices) harvest(device, report);
}

}  // namespace

StrategyReport replay_strategy(Strategy strategy, const mip::BnbSolver& searched,
                               const StrategyConfig& config) {
  StrategyReport report;
  report.strategy = strategy;
  const lp::StandardForm& form = searched.form();
  switch (strategy) {
    case Strategy::S1_GpuOnly:
      replay_s1(searched, form, config, report);
      break;
    case Strategy::S2_CpuOrchestrated:
      replay_s2_s3(searched, form, config, /*overlap=*/false, report);
      break;
    case Strategy::S3_Hybrid:
      replay_s2_s3(searched, form, config, /*overlap=*/true, report);
      break;
    case Strategy::S4_BigMip:
      replay_s4(searched, form, config, report);
      break;
  }
  return report;
}

StrategyReport run_strategy(Strategy strategy, const mip::MipModel& model,
                            const StrategyConfig& config) {
  mip::BnbSolver solver(model, config.mip);
  mip::MipResult result = solver.solve();
  StrategyReport report = replay_strategy(strategy, solver, config);
  report.result = std::move(result);
  return report;
}

}  // namespace gpumip::parallel
