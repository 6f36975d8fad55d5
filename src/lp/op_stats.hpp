// Operation accounting for one LP solve, and the chargers that price those
// operations onto a simulated GPU timeline or a CPU time estimate.
//
// The simplex/IPM numerics run on the host; they record *what* linear
// algebra they performed (how many FTRANs of what size, etc.). A charger
// then replays that recipe as device kernel launches (one bulk
// `Device::launch_n` charge per kernel family, still priced launch by
// launch, so launch-latency effects are preserved) or prices it at CPU
// rates. This keeps the numerics engine independent of where the paper's
// strategies decide to run each piece (sections 3, 5).
#pragma once

#include <cstdint>

#include "gpu/device.hpp"

namespace gpumip::lp {

/// Counts of the linear-algebra operations of one LP solve.
struct LpOpStats {
  int m = 0;    ///< basis dimension
  int n = 0;    ///< number of variables
  long nnz = 0; ///< constraint matrix nonzeros

  long ftran = 0;        ///< B⁻¹ a_q applications (dense m x m)
  long btran = 0;        ///< yᵀB⁻¹ applications (dense m x m)
  long price_full = 0;   ///< reduced-cost passes over the matrix (nnz work)
  long eta_updates = 0;  ///< rank-1 PFI updates of B⁻¹ (dense m x m)
  long refactor = 0;     ///< basis refactorizations (LU, 2/3 m³ + inverse m³)
  long iterations = 0;   ///< simplex iterations (or IPM/PDHG iterations)
  long bound_flips = 0;
  long cholesky = 0;     ///< normal-equation factorizations (IPM), m³/3
  long matvec_n = 0;     ///< assorted n-sized vector ops
  long spmv = 0;         ///< matrix-free Ax / Aᵀy passes (PDHG), nnz work each
  long restarts = 0;     ///< PDHG average-iterate restarts

  void add(const LpOpStats& other) {
    ftran += other.ftran;
    btran += other.btran;
    price_full += other.price_full;
    eta_updates += other.eta_updates;
    refactor += other.refactor;
    iterations += other.iterations;
    bound_flips += other.bound_flips;
    cholesky += other.cholesky;
    matvec_n += other.matvec_n;
    spmv += other.spmv;
    restarts += other.restarts;
  }
};

/// Host CPU cost model (effective rates for a beefy multicore host; the
/// paper's CPU-vs-GPU comparisons use the ratio, not the absolute value).
struct CpuCostModel {
  double flops = 60.0e9;          ///< effective dense fp64 rate
  double sparse_flops = 12.0e9;   ///< effective sparse rate (cache-friendlier than GPU's ratio)
  double per_op_overhead = 0.2e-6;
};

/// Seconds the recorded operations take on the host CPU.
double cpu_seconds(const LpOpStats& stats, const CpuCostModel& cpu = {});

/// Adds one finished solve's op recipe to the process-wide obs registry
/// (lp.ops.* counters). No-op when the observability layer is compiled out.
void publish_op_stats(const LpOpStats& stats);

/// One device basis refactorization of dimension m (LU 2/3 m³ + inverse m³
/// over m² doubles): the kernel charge_to_device launches per `refactor`.
gpu::KernelCost refactor_kernel_cost(int m);

/// Replays the recorded operations as device kernel launches on `stream`,
/// one `launch_n` per kernel family (no bodies; the numerics already ran).
/// `sparse_pricing` selects whether pricing passes are charged at sparse or
/// dense rates.
void charge_to_device(gpu::Device& device, gpu::StreamId stream, const LpOpStats& stats,
                      bool sparse_pricing);

/// Device memory (bytes) the dense-GPU LP backend keeps resident for a
/// standard form of shape (m, n, nnz): dense A (m*n), B⁻¹ (m*m), and
/// work vectors. Used for capacity accounting by the strategies.
std::uint64_t dense_lp_device_bytes(int m, int n);

/// Device memory (bytes) a matrix-free PDHG instance keeps resident: the
/// CSR image (values + column indices + row offsets) and the iterate /
/// average / scratch vectors. No basis inverse, no factorization — this is
/// the footprint argument for batching many instances per device.
std::uint64_t pdhg_lp_device_bytes(int m, int n, long nnz);

}  // namespace gpumip::lp
