// Concurrent solution of many small LP relaxations on one device (paper
// section 5.5, both execution structures it proposes):
//
//  * StreamMode — "multiple ranks / asynchronous launches": each problem's
//    kernel recipe is replayed on its own stream; overlap is bounded by the
//    device's concurrent-kernel slots.
//  * LockstepMode — "batch-style processing of linear algebra calls": the
//    i-th iteration of every still-active problem executes as ONE batched
//    kernel per operation type (FTRAN/BTRAN/price/update waves), MAGMA
//    style. Occupancy grows with the number of active problems; stragglers
//    keep iterating in later (smaller) waves.
//
// Numerics run on the host (one SimplexSolver or PdhgSolver per problem),
// concurrently: the member solves are spread over up to as many threads as
// the process may run on, each writing its own result slot. The device
// timeline is then replayed from the results in problem order, so results,
// counters and simulated time are bit-identical to sequential solves by
// construction, and the timing model is consistent with the rest of the
// library. The host phase records one gpumip.lp.solve.seconds sample per
// call; a member that throws is rethrown after all threads have joined
// (lowest failing index first).
#pragma once

#include <vector>

#include "gpu/device.hpp"
#include "lp/pdhg.hpp"
#include "lp/simplex.hpp"

namespace gpumip::lp {

enum class BatchMode {
  Sequential,  ///< one problem at a time on stream 0 (baseline)
  Streams,     ///< round-robin across device streams
  Lockstep,    ///< batched kernel waves across active problems
};

const char* batch_mode_name(BatchMode mode) noexcept;

struct BatchedLpReport {
  std::vector<LpResult> results;   ///< per-problem results (exact)
  double sim_seconds = 0.0;        ///< simulated device makespan
  std::uint64_t kernels = 0;       ///< kernel launches issued
  long waves = 0;                  ///< Lockstep: number of kernel waves
};

/// Solves every standard form under its own bounds (default
/// SimplexOptions) and replays the device cost in the chosen mode. The
/// batch is resident on the device for the call: one Device::alloc of the
/// summed dense_lp_device_bytes, freed on return. All forms must fit at
/// once (throws DeviceOutOfMemory otherwise).
[[nodiscard]] BatchedLpReport solve_batched(const std::vector<const StandardForm*>& problems,
                                            gpu::Device& device, BatchMode mode);

/// The first-order contender (Blin et al., paper claims C6/C7): every
/// instance is solved by restarted PDHG (exact host numerics, identical
/// results to sequential PdhgSolver calls), and the device timeline is
/// replayed as lockstep iteration waves. Each wave — SpMVᵀ, primal
/// update/project, SpMV, dual update across all active instances — fuses
/// into a single batched launch, because a PDHG iteration contains no
/// host-side decision (a simplex pivot does: the ratio test feeds the next
/// pivot's structure, so its waves cannot fuse). The host only syncs at the
/// periodic batched KKT check. A wave moves K·nnz sparse bytes where the
/// simplex lockstep wave moves K·m² dense bytes; launch amortization plus
/// that byte asymmetry is the crossover argument of docs/METHODS.md.
/// Residency is one Device::alloc of the summed pdhg_lp_device_bytes,
/// freed on return.
[[nodiscard]] BatchedLpReport solve_batched_pdhg(
    const std::vector<const StandardForm*>& problems, gpu::Device& device,
    const PdhgOptions& options = {});

}  // namespace gpumip::lp
