// The paper's four parallel execution strategies (section 3), realized as
// cost-faithful replays of a branch-and-bound run over the simulated
// device(s):
//
//  S1 GpuOnly        — tree AND LP solves resident on the device; fails
//                      honestly (OOM) when the tree outgrows device memory;
//                      tree manipulation pays divergent-kernel prices.
//  S2 CpuOrchestrated— tree in host memory, device only accelerates each
//                      node's LP; bound/basis deltas cross the bus per
//                      node; host tree handling serializes with the device.
//  S3 Hybrid         — as S2 but host work (tree, cuts, heuristics)
//                      overlaps device work (many-core CPU + GPU).
//  S4 BigMip         — the LP matrix is column-partitioned over several
//                      devices; every simplex iteration is a distributed
//                      operation (pricing in parallel, basis ops on device
//                      0, broadcasts in between). The only strategy that
//                      works when one LP matrix exceeds a single device.
//
// A strategy does not change the search: the numerics run once, on the host
// (mip::BnbSolver), and replay_strategy prices that finished search under
// each strategy. Every strategy therefore prices the same tree and reports
// the same optimum; what differs — and what experiment E1 measures — is the
// simulated time, transfer volume, and memory footprint.
#pragma once

#include <string>

#include "gpu/device.hpp"
#include "mip/solver.hpp"
#include "parallel/simmpi.hpp"

namespace gpumip::parallel {

enum class Strategy { S1_GpuOnly, S2_CpuOrchestrated, S3_Hybrid, S4_BigMip };

const char* strategy_name(Strategy strategy) noexcept;

struct StrategyConfig {
  gpu::CostModelConfig device;  ///< per-device architecture
  int devices = 1;              ///< S4 shards across this many devices
  NetworkConfig interconnect;   ///< device-to-device link (S4)
  mip::MipOptions mip;          ///< the search (run_strategy only)
  lp::CpuCostModel cpu;
};

struct StrategyReport {
  Strategy strategy = Strategy::S2_CpuOrchestrated;
  mip::MipResult result;         ///< run_strategy's search (replay: empty)
  bool completed = false;        ///< false: strategy infeasible on this hw
  std::string failure;           ///< why (e.g. device OOM for the tree)
  double sim_seconds = 0.0;      ///< simulated end-to-end time
  double device_seconds = 0.0;   ///< device busy time (max over devices)
  double host_seconds = 0.0;     ///< host compute time
  double network_seconds = 0.0;  ///< device-to-device communication (S4)
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t transfers = 0;
  std::uint64_t device_peak_bytes = 0;  ///< max over devices
};

/// Prices the finished search `searched` (after solve()) under `strategy`
/// on the configured hardware; runs no search itself, and reads only the
/// search's trace(), tree anatomy and form(). `config.mip` is not read.
/// `completed=false` plus `failure` indicate the strategy could not have
/// executed on that hardware (e.g. S1 tree OOM), with costs reported up to
/// the failure point. `result` is left empty: it is the search's.
StrategyReport replay_strategy(Strategy strategy, const mip::BnbSolver& searched,
                               const StrategyConfig& config);

/// Searches `model` with `config.mip`, then replay_strategy: the report
/// carries the search's result.
StrategyReport run_strategy(Strategy strategy, const mip::MipModel& model,
                            const StrategyConfig& config);

/// Bytes needed to keep one LP-relaxation matrix (dense) plus basis inverse
/// on a device — the per-problem footprint strategies S1-S3 must fit.
std::uint64_t lp_device_footprint(const lp::StandardForm& form);

}  // namespace gpumip::parallel
