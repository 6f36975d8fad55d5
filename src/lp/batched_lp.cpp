#include "lp/batched_lp.hpp"

#include <algorithm>

#include "linalg/device_blas.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace gpumip::lp {

const char* batch_mode_name(BatchMode mode) noexcept {
  switch (mode) {
    case BatchMode::Sequential: return "sequential";
    case BatchMode::Streams: return "streams";
    case BatchMode::Lockstep: return "lockstep";
  }
  return "?";
}

namespace {

/// Batched kernel covering one operation type for `active` problems of
/// (m, n, nnz) shape each.
gpu::KernelCost wave_cost(int active, int m, int n, double flops_each, double doubles_each) {
  gpu::KernelCost cost = gpu::KernelCost::dense(flops_each * active, doubles_each * active);
  (void)m;
  (void)n;
  cost.occupancy =
      linalg::occupancy_for_elements(static_cast<std::size_t>(active) * static_cast<std::size_t>(doubles_each));
  return cost;
}

}  // namespace

BatchedLpReport solve_batched(const std::vector<const StandardForm*>& problems,
                              gpu::Device& device, gpu::DeviceArena& arena, BatchMode mode,
                              const SimplexOptions& options, int streams) {
  check_arg(!problems.empty(), "solve_batched: empty batch");
  check_arg(streams >= 1, "solve_batched: need at least one stream");
  BatchedLpReport report;
  GPUMIP_OBS_COUNT_L("gpumip.lp.batch.solves", {"method", "simplex"});
  GPUMIP_OBS_RECORD_L("gpumip.lp.batch.size", static_cast<double>(problems.size()),
                      {"method", "simplex"});

  // Device residency for the whole batch, served from the caller's arena
  // (capacity is still checked for real: arena growth goes through
  // Device::alloc). Sizing the reserve up front keeps the arena at one
  // exactly-fitting slab; repeat batches of similar shape reuse it with no
  // device allocation at all.
  arena.reset();
  std::size_t residency_bytes = 0;
  for (const StandardForm* form : problems) {
    check_arg(form != nullptr, "solve_batched: null problem");
    residency_bytes += gpu::DeviceArena::aligned_size(
        static_cast<std::size_t>(dense_lp_device_bytes(form->num_rows, form->num_vars)));
  }
  // gpumip-lint: hot-alloc(arena reserve: at most one amortized slab allocation, zero once warm)
  arena.reserve(residency_bytes);
  for (const StandardForm* form : problems) {
    (void)arena.allot(
        static_cast<std::size_t>(dense_lp_device_bytes(form->num_rows, form->num_vars)));
  }

  // Host numerics: exact solves, recording the per-problem recipes.
  for (const StandardForm* form : problems) {
    SimplexSolver solver(*form, options);
    // gpumip-lint: hot-alloc(one result slot per problem in the batch report; sized by the batch, not the pivot count)
    report.results.push_back(solver.solve_default());
  }

  device.synchronize();
  device.reset_stats();
  const std::uint64_t kernels_before = device.stats().kernels;

  switch (mode) {
    case BatchMode::Sequential: {
      for (const LpResult& r : report.results) {
        charge_to_device(device, 0, r.ops, /*sparse_pricing=*/false);
      }
      break;
    }
    case BatchMode::Streams: {
      // gpumip-lint: hot-alloc(stream-id table bounded by --streams, built at batch setup before the timed section)
      std::vector<gpu::StreamId> ids = {0};
      // gpumip-lint: hot-alloc(same stream-id table growth, bounded by --streams)
      while (static_cast<int>(ids.size()) < streams) ids.push_back(device.create_stream());
      for (std::size_t p = 0; p < report.results.size(); ++p) {
        charge_to_device(device, ids[p % ids.size()], report.results[p].ops,
                         /*sparse_pricing=*/false);
      }
      break;
    }
    case BatchMode::Lockstep: {
      // Wave w executes iteration w of every problem still active. Four
      // batched kernels per wave (BTRAN, pricing, FTRAN, eta update), plus
      // batched refactorizations at the configured interval.
      long max_iters = 0;
      for (const LpResult& r : report.results) {
        max_iters = std::max(max_iters, r.ops.iterations);
      }
      for (long w = 0; w < max_iters; ++w) {
        int active = 0;
        double m_avg = 0, n_avg = 0;
        for (std::size_t p = 0; p < problems.size(); ++p) {
          if (report.results[p].ops.iterations > w) {
            ++active;
            m_avg += problems[p]->num_rows;
            n_avg += problems[p]->num_vars;
          }
        }
        if (active == 0) break;
        m_avg /= active;
        n_avg /= active;
        ++report.waves;
        GPUMIP_OBS_COUNT_L("gpumip.lp.batch.waves", {"method", "simplex"});
        GPUMIP_TRACE_SCOPE("gpumip.lp.batch.wave", active);
        // Paper C7: fraction of the batch still pivoting in this wave.
        GPUMIP_OBS_RECORD_L("gpumip.lp.batch.occupancy",
                            static_cast<double>(active) / static_cast<double>(problems.size()),
                            {"method", "simplex"});
        const double mm = 2.0 * m_avg * m_avg;
        // BTRAN + FTRAN + eta update (dense m x m each).
        device.launch(0, wave_cost(active, static_cast<int>(m_avg), static_cast<int>(n_avg),
                                   mm, m_avg * m_avg), {});
        device.launch(0, wave_cost(active, static_cast<int>(m_avg), static_cast<int>(n_avg),
                                   mm, m_avg * m_avg), {});
        device.launch(0, wave_cost(active, static_cast<int>(m_avg), static_cast<int>(n_avg),
                                   mm, m_avg * m_avg), {});
        // Pricing (dense m x n pass).
        device.launch(0, wave_cost(active, static_cast<int>(m_avg), static_cast<int>(n_avg),
                                   2.0 * m_avg * n_avg, m_avg * n_avg), {});
        // Periodic batched refactorization.
        if (options.refactor_interval > 0 && w > 0 && w % options.refactor_interval == 0) {
          device.launch(0, wave_cost(active, static_cast<int>(m_avg), static_cast<int>(n_avg),
                                     (2.0 / 3.0 + 1.0) * m_avg * m_avg * m_avg, m_avg * m_avg),
                        {});
        }
      }
      break;
    }
  }
  report.sim_seconds = device.synchronize();
  report.kernels = device.stats().kernels - kernels_before;
  return report;
}

BatchedLpReport solve_batched(const std::vector<const StandardForm*>& problems,
                              gpu::Device& device, BatchMode mode,
                              const SimplexOptions& options, int streams) {
  gpu::DeviceArena arena(device, "batch.lp");
  return solve_batched(problems, device, arena, mode, options, streams);
}

namespace {

/// Batched sparse kernel covering one SpMV-shaped operation across the
/// active problems: nnz_total nonzeros touched, vec_total output elements.
gpu::KernelCost sparse_wave_cost(double nnz_total, double vec_total) {
  gpu::KernelCost cost = gpu::KernelCost::sparse_irregular(2.0 * nnz_total,
                                                           1.5 * nnz_total + vec_total);
  cost.occupancy = linalg::occupancy_for_elements(static_cast<std::size_t>(nnz_total));
  return cost;
}

}  // namespace

BatchedLpReport solve_batched_pdhg(const std::vector<const StandardForm*>& problems,
                                   gpu::Device& device, gpu::DeviceArena& arena,
                                   const PdhgOptions& options) {
  check_arg(!problems.empty(), "solve_batched_pdhg: empty batch");
  BatchedLpReport report;
  GPUMIP_OBS_COUNT_L("gpumip.lp.batch.solves", {"method", "pdhg"});
  GPUMIP_OBS_RECORD_L("gpumip.lp.batch.size", static_cast<double>(problems.size()),
                      {"method", "pdhg"});

  // Residency: the CSR image plus iterate vectors per instance — no basis
  // inverse, no dense expansion, which is why far more PDHG instances
  // co-reside than simplex ones (pdhg_lp_device_bytes vs dense_lp_device_bytes).
  arena.reset();
  std::size_t residency_bytes = 0;
  for (const StandardForm* form : problems) {
    check_arg(form != nullptr, "solve_batched_pdhg: null problem");
    residency_bytes += gpu::DeviceArena::aligned_size(static_cast<std::size_t>(
        pdhg_lp_device_bytes(form->num_rows, form->num_vars,
                             static_cast<long>(form->a_rows.nnz()))));
  }
  // gpumip-lint: hot-alloc(arena reserve: at most one amortized slab allocation, zero once warm)
  arena.reserve(residency_bytes);
  for (const StandardForm* form : problems) {
    (void)arena.allot(static_cast<std::size_t>(
        pdhg_lp_device_bytes(form->num_rows, form->num_vars,
                             static_cast<long>(form->a_rows.nnz()))));
  }

  // Host numerics: the batched path is exact — bit-identical to sequential
  // PdhgSolver calls (tests assert this under the schedule fuzzer).
  for (const StandardForm* form : problems) {
    PdhgSolver solver(*form, options);
    // gpumip-lint: hot-alloc(one result slot per problem in the batch report; sized by the batch, not the iteration count)
    report.results.push_back(solver.solve_default());
  }

  device.synchronize();
  device.reset_stats();
  const std::uint64_t kernels_before = device.stats().kernels;

  // Wave w executes iteration w of every still-active instance as four
  // batched kernels: SpMVᵀ (Aᵀy), primal update/project, SpMV (A·x̄), dual
  // update. Every check_interval waves, two more batched SpMV-shaped
  // kernels score the KKT candidates.
  long max_iters = 0;
  for (const LpResult& r : report.results) {
    max_iters = std::max(max_iters, r.ops.iterations);
  }
  for (long w = 0; w < max_iters; ++w) {
    int active = 0;
    double nnz_sum = 0, m_sum = 0, n_sum = 0;
    for (std::size_t p = 0; p < problems.size(); ++p) {
      if (report.results[p].ops.iterations > w) {
        ++active;
        nnz_sum += problems[p]->a_rows.nnz();
        m_sum += problems[p]->num_rows;
        n_sum += problems[p]->num_vars;
      }
    }
    if (active == 0) break;
    ++report.waves;
    GPUMIP_OBS_COUNT_L("gpumip.lp.batch.waves", {"method", "pdhg"});
    GPUMIP_TRACE_SCOPE("gpumip.lp.batch.wave", active);
    GPUMIP_OBS_RECORD_L("gpumip.lp.batch.occupancy",
                        static_cast<double>(active) / static_cast<double>(problems.size()),
                        {"method", "pdhg"});
    // The whole iteration fuses into ONE batched launch: unlike a simplex
    // pivot, whose ratio test feeds the host's choice of the next entering
    // column, a PDHG iteration has no host-side decision in it — SpMVᵀ,
    // primal update/project, SpMV and dual update chain on-device with
    // fixed shapes. The host only intervenes at the periodic KKT check.
    // This is the launch-amortization half of the crossover argument; the
    // K·nnz-vs-K·m² bytes asymmetry is the other half (docs/METHODS.md).
    gpu::KernelCost fused = gpu::KernelCost::sparse_irregular(
        4.0 * nnz_sum + 4.0 * n_sum + 3.0 * m_sum,
        3.0 * nnz_sum + 4.0 * n_sum + 3.0 * m_sum);
    fused.occupancy = linalg::occupancy_for_elements(static_cast<std::size_t>(nnz_sum));
    device.launch(0, fused, {});
    if (options.check_interval > 0 && w > 0 && w % options.check_interval == 0) {
      // Batched KKT scoring (a host sync point: the restart/termination
      // verdict is read back), two SpMV-shaped launches.
      device.launch(0, sparse_wave_cost(nnz_sum, m_sum), {});
      device.launch(0, sparse_wave_cost(nnz_sum, n_sum), {});
    }
  }
  report.sim_seconds = device.synchronize();
  report.kernels = device.stats().kernels - kernels_before;
  return report;
}

BatchedLpReport solve_batched_pdhg(const std::vector<const StandardForm*>& problems,
                                   gpu::Device& device, const PdhgOptions& options) {
  gpu::DeviceArena arena(device, "batch.lp");
  return solve_batched_pdhg(problems, device, arena, options);
}

}  // namespace gpumip::lp
