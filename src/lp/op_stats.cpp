#include "lp/op_stats.hpp"

#include <cmath>

#include "linalg/device_blas.hpp"
#include "obs/obs.hpp"

namespace gpumip::lp {

double cpu_seconds(const LpOpStats& stats, const CpuCostModel& cpu) {
  const double m = stats.m;
  const double n = stats.n;
  const double mm = 2.0 * m * m;
  double seconds = 0.0;
  seconds += (stats.ftran + stats.btran + stats.eta_updates) * (mm / cpu.flops);
  seconds += stats.price_full * (2.0 * static_cast<double>(stats.nnz) / cpu.sparse_flops);
  seconds += stats.refactor * ((2.0 / 3.0 + 1.0) * m * m * m / cpu.flops);
  seconds += stats.cholesky * ((1.0 / 3.0) * m * m * m / cpu.flops);
  seconds += stats.matvec_n * (2.0 * n / cpu.flops);
  seconds += stats.spmv * (2.0 * static_cast<double>(stats.nnz) / cpu.sparse_flops);
  const long ops = stats.ftran + stats.btran + stats.price_full + stats.eta_updates +
                   stats.refactor + stats.cholesky + stats.matvec_n + stats.spmv;
  seconds += static_cast<double>(ops) * cpu.per_op_overhead;
  return seconds;
}

void publish_op_stats(const LpOpStats& stats) {
  auto as_u64 = [](long v) { return static_cast<std::uint64_t>(v < 0 ? 0 : v); };
  GPUMIP_OBS_ADD("gpumip.lp.ops.ftran", as_u64(stats.ftran));
  GPUMIP_OBS_ADD("gpumip.lp.ops.btran", as_u64(stats.btran));
  GPUMIP_OBS_ADD("gpumip.lp.ops.price_full", as_u64(stats.price_full));
  GPUMIP_OBS_ADD("gpumip.lp.ops.eta_updates", as_u64(stats.eta_updates));
  GPUMIP_OBS_ADD("gpumip.lp.ops.refactor", as_u64(stats.refactor));
  GPUMIP_OBS_ADD("gpumip.lp.ops.iterations", as_u64(stats.iterations));
  GPUMIP_OBS_ADD("gpumip.lp.ops.bound_flips", as_u64(stats.bound_flips));
  GPUMIP_OBS_ADD("gpumip.lp.ops.cholesky", as_u64(stats.cholesky));
  GPUMIP_OBS_ADD("gpumip.lp.ops.matvec_n", as_u64(stats.matvec_n));
  GPUMIP_OBS_ADD("gpumip.lp.ops.spmv", as_u64(stats.spmv));
  GPUMIP_OBS_ADD("gpumip.lp.ops.restarts", as_u64(stats.restarts));
}

gpu::KernelCost refactor_kernel_cost(int m) {
  const double md = m;
  gpu::KernelCost cost = gpu::KernelCost::dense((2.0 / 3.0 + 1.0) * md * md * md, md * md);
  cost.occupancy = linalg::occupancy_for_elements(static_cast<std::size_t>(m) * m);
  return cost;
}

void charge_to_device(gpu::Device& device, gpu::StreamId stream, const LpOpStats& stats,
                      bool sparse_pricing) {
  using gpu::KernelCost;
  const double m = stats.m;
  const double n = stats.n;
  const std::size_t mm_elems = static_cast<std::size_t>(stats.m) * stats.m;
  const double occ_mm = linalg::occupancy_for_elements(mm_elems);

  KernelCost mm_cost = KernelCost::dense(2.0 * m * m, m * m);
  mm_cost.occupancy = occ_mm;
  device.launch_n(stream, mm_cost, stats.ftran + stats.btran + stats.eta_updates);

  KernelCost price_cost =
      sparse_pricing
          ? KernelCost::sparse_irregular(2.0 * static_cast<double>(stats.nnz),
                                         1.5 * static_cast<double>(stats.nnz) + n)
          : KernelCost::dense(2.0 * m * n, m * n);
  price_cost.occupancy = linalg::occupancy_for_elements(
      sparse_pricing ? static_cast<std::size_t>(stats.nnz)
                     : static_cast<std::size_t>(stats.m) * stats.n);
  device.launch_n(stream, price_cost, stats.price_full);

  device.launch_n(stream, refactor_kernel_cost(stats.m), stats.refactor);

  KernelCost chol_cost = KernelCost::dense((1.0 / 3.0) * m * m * m, m * m);
  chol_cost.occupancy = occ_mm;
  device.launch_n(stream, chol_cost, stats.cholesky);

  KernelCost vec_cost = KernelCost::dense(2.0 * n, n);
  vec_cost.occupancy = linalg::occupancy_for_elements(static_cast<std::size_t>(stats.n));
  device.launch_n(stream, vec_cost, stats.matvec_n);

  // Matrix-free SpMV passes (PDHG): always sparse-irregular — the whole
  // point of the first-order backend is that it never densifies A.
  KernelCost spmv_cost = KernelCost::sparse_irregular(
      2.0 * static_cast<double>(stats.nnz), 1.5 * static_cast<double>(stats.nnz) + n);
  spmv_cost.occupancy =
      linalg::occupancy_for_elements(static_cast<std::size_t>(stats.nnz < 0 ? 0 : stats.nnz));
  device.launch_n(stream, spmv_cost, stats.spmv);
}

std::uint64_t dense_lp_device_bytes(int m, int n) {
  const std::uint64_t a = static_cast<std::uint64_t>(m) * n;
  const std::uint64_t binv = static_cast<std::uint64_t>(m) * m;
  const std::uint64_t vectors = 4ull * (static_cast<std::uint64_t>(m) + n);
  return (a + binv + vectors) * sizeof(double);
}

std::uint64_t pdhg_lp_device_bytes(int m, int n, long nnz) {
  const std::uint64_t z = static_cast<std::uint64_t>(nnz < 0 ? 0 : nnz);
  const std::uint64_t csr = z * (sizeof(double) + sizeof(int)) +
                            (static_cast<std::uint64_t>(m) + 1) * sizeof(int);
  // x, x̄, Aᵀy, running x-sum, per-column steps + bounds on the primal side;
  // y, Ax̄, running y-sum, per-row steps + rhs on the dual side.
  const std::uint64_t vectors =
      (6ull * static_cast<std::uint64_t>(n) + 5ull * static_cast<std::uint64_t>(m)) *
      sizeof(double);
  return csr + vectors;
}

}  // namespace gpumip::lp
