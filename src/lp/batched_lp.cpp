#include "lp/batched_lp.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

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

/// Streams mode replays the members round-robin over this many streams.
constexpr int kBatchStreams = 16;

/// Lockstep charges a batched refactorization every this many waves: the
/// members' own refactor interval (they solve under default options).
constexpr int kRefactorInterval = SimplexOptions{}.refactor_interval;

/// Batched kernel covering one operation type for `active` problems, each
/// doing `flops_each` flops over `doubles_each` doubles.
gpu::KernelCost wave_cost(int active, double flops_each, double doubles_each) {
  gpu::KernelCost cost = gpu::KernelCost::dense(flops_each * active, doubles_each * active);
  cost.occupancy =
      linalg::occupancy_for_elements(static_cast<std::size_t>(active) * static_cast<std::size_t>(doubles_each));
  return cost;
}

/// CPUs the process may run on (its affinity mask), at least one.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs solve_member(p) for every p in [0, count) on up to usable_cpus()
/// threads spawned for this call, the calling thread included; the threads
/// claim members in index order from a shared cursor. solve_member writes
/// only slot p of its output, so the results do not depend on which thread
/// solved what. A throwing member does not stop the others: once every
/// thread has joined, the exception of the lowest failing index is
/// rethrown (as simmpi::run_ranks does for ranks).
template <class SolveMember>
void solve_members(std::size_t count, const SolveMember& solve_member) {
  // gpumip-lint: hot-alloc(one error slot per member; the host phase ends before the device timeline starts)
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t p = next++; p < count; p = next++) {
      try {
        solve_member(p);
      } catch (...) {
        errors[p] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> helpers;
  const std::size_t threads = std::min(count, usable_cpus());
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      // gpumip-lint: hot-alloc(host worker threads, spawned per batch; the host phase ends before the device timeline starts)
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // out of threads: the ones already running share the batch
    }
  }
  work();
  for (std::thread& helper : helpers) {
    helper.join();  // gpumip-lint: hot-block(joins the host worker threads; the host phase ends before the device timeline starts)
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

BatchedLpReport solve_batched(const std::vector<const StandardForm*>& problems,
                              gpu::Device& device, BatchMode mode) {
  check_arg(!problems.empty(), "solve_batched: empty batch");
  BatchedLpReport report;
  GPUMIP_OBS_COUNT_L("gpumip.lp.batch.solves", {"method", "simplex"});
  GPUMIP_OBS_RECORD_L("gpumip.lp.batch.size", static_cast<double>(problems.size()),
                      {"method", "simplex"});

  // Device residency for the whole batch: one allocation of the summed
  // footprints, held until return (Device::alloc enforces capacity).
  std::size_t residency_bytes = 0;
  for (const StandardForm* form : problems) {
    check_arg(form != nullptr, "solve_batched: null problem");
    residency_bytes +=
        static_cast<std::size_t>(dense_lp_device_bytes(form->num_rows, form->num_vars));
  }
  // gpumip-lint: hot-alloc(batch residency: one device allocation per call, before the wave loop)
  const gpu::DeviceBuffer residency = device.alloc(residency_bytes, "batch.lp");

  // Host numerics: exact solves, recording the per-problem recipes; the
  // concurrent host phase is timed as one sample.
  // gpumip-lint: hot-alloc(one result slot per problem in the batch report; sized by the batch, not the pivot count)
  report.results.resize(problems.size());
  {
    GPUMIP_OBS_SPAN_L("gpumip.lp.solve.seconds", {"method", "simplex"});
    solve_members(problems.size(), [&](std::size_t p) {
      SimplexSolver solver(*problems[p]);
      report.results[p] = solver.solve_default(SolveTiming::Caller);
    });
  }

  device.synchronize();
  device.reset_stats();

  switch (mode) {
    case BatchMode::Sequential: {
      for (const LpResult& r : report.results) {
        charge_to_device(device, 0, r.ops, /*sparse_pricing=*/false);
      }
      break;
    }
    case BatchMode::Streams: {
      // gpumip-lint: hot-alloc(stream-id table of kBatchStreams entries, built at batch setup before the timed section)
      std::vector<gpu::StreamId> ids = {0};
      // gpumip-lint: hot-alloc(same stream-id table growth, bounded by kBatchStreams)
      while (static_cast<int>(ids.size()) < kBatchStreams) ids.push_back(device.create_stream());
      for (std::size_t p = 0; p < report.results.size(); ++p) {
        charge_to_device(device, ids[p % ids.size()], report.results[p].ops,
                         /*sparse_pricing=*/false);
      }
      break;
    }
    case BatchMode::Lockstep: {
      // Wave w executes iteration w of every problem still active. Four
      // batched kernels per wave (BTRAN, pricing, FTRAN, eta update), plus
      // batched refactorizations at the members' refactor interval.
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
        device.launch_n(0, wave_cost(active, mm, m_avg * m_avg), 3);
        // Pricing (dense m x n pass).
        device.launch(0, wave_cost(active, 2.0 * m_avg * n_avg, m_avg * n_avg), {});
        // Periodic batched refactorization.
        if (w > 0 && w % kRefactorInterval == 0) {
          device.launch(0,
                        wave_cost(active, (2.0 / 3.0 + 1.0) * m_avg * m_avg * m_avg,
                                  m_avg * m_avg),
                        {});
        }
      }
      break;
    }
  }
  report.sim_seconds = device.synchronize();
  report.kernels = device.stats().kernels;
  return report;
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
                                   gpu::Device& device, const PdhgOptions& options) {
  check_arg(!problems.empty(), "solve_batched_pdhg: empty batch");
  BatchedLpReport report;
  GPUMIP_OBS_COUNT_L("gpumip.lp.batch.solves", {"method", "pdhg"});
  GPUMIP_OBS_RECORD_L("gpumip.lp.batch.size", static_cast<double>(problems.size()),
                      {"method", "pdhg"});

  // Residency: the CSR image plus iterate vectors per instance — no basis
  // inverse, no dense expansion, which is why far more PDHG instances
  // co-reside than simplex ones (pdhg_lp_device_bytes vs dense_lp_device_bytes).
  // One allocation of the summed footprints, held until return.
  std::size_t residency_bytes = 0;
  for (const StandardForm* form : problems) {
    check_arg(form != nullptr, "solve_batched_pdhg: null problem");
    residency_bytes += static_cast<std::size_t>(pdhg_lp_device_bytes(
        form->num_rows, form->num_vars, static_cast<long>(form->a_rows.nnz())));
  }
  // gpumip-lint: hot-alloc(batch residency: one device allocation per call, before the wave loop)
  const gpu::DeviceBuffer residency = device.alloc(residency_bytes, "batch.pdhg");

  // Host numerics: the batched path is exact — bit-identical to sequential
  // PdhgSolver calls (tests assert this under the schedule fuzzer); the
  // concurrent host phase is timed as one sample.
  // gpumip-lint: hot-alloc(one result slot per problem in the batch report; sized by the batch, not the iteration count)
  report.results.resize(problems.size());
  {
    GPUMIP_OBS_SPAN_L("gpumip.lp.solve.seconds", {"method", "pdhg"});
    solve_members(problems.size(), [&](std::size_t p) {
      PdhgSolver solver(*problems[p], options);
      report.results[p] = solver.solve_default(SolveTiming::Caller);
    });
  }

  device.synchronize();
  device.reset_stats();

  // Wave w executes iteration w of every still-active instance as four
  // batched kernels: SpMVᵀ (Aᵀy), primal update/project, SpMV (A·x̄), dual
  // update. Every kPdhgCheckInterval waves, two more batched SpMV-shaped
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
    if (w > 0 && w % kPdhgCheckInterval == 0) {
      // Batched KKT scoring (a host sync point: the restart/termination
      // verdict is read back), two SpMV-shaped launches.
      device.launch(0, sparse_wave_cost(nnz_sum, m_sum), {});
      device.launch(0, sparse_wave_cost(nnz_sum, n_sum), {});
    }
  }
  report.sim_seconds = device.synchronize();
  report.kernels = device.stats().kernels;
  return report;
}

}  // namespace gpumip::lp
