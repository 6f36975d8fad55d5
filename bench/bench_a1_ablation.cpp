// A1 — cost-model ablation (DESIGN.md, design choice 1).
//
// The experiments' conclusions must not hinge on one particular calibration
// of the simulated device. This bench re-prices the headline comparisons
// under swept cost-model parameters (A1-a searches its MIP once and prices
// that one search at every scale):
//   * compute/bandwidth scale (0.25x .. 4x a V100-class part),
//   * PCIe latency (2.5us .. 40us),
//   * sparse-kernel efficiency (0.015 .. 0.24),
// and reports where (if anywhere) each conclusion flips:
//   - E1: S3 <= S2 ordering, and S1's memory failure (parameter-free),
//   - E6: the dense/sparse crossover density,
//   - E3: the eta-vs-refactorize advantage.
#include "bench/common.hpp"
#include "linalg/device_blas.hpp"
#include "lp/op_stats.hpp"
#include "parallel/strategies.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;

void strategy_ordering() {
  bench::title("A1-a", "E1's strategy ordering under device scaling");
  Rng rng(41);
  problems::RandomMipConfig cfg;
  cfg.rows = 12;
  cfg.cols = 20;
  cfg.bound = 3.0;
  mip::MipOptions options;
  options.enable_cuts = false;
  mip::BnbSolver searched(problems::random_mip(cfg, rng), options);
  static_cast<void>(searched.solve());
  bench::row("  %-8s %-13s %-13s %-13s %-13s %-24s", "scale", "S1", "S2", "S3", "S4",
             "ordering holds?");
  for (double scale : {0.25, 1.0, 4.0}) {
    parallel::StrategyConfig config;
    config.device = gpu::CostModelConfig{}.scaled(scale);
    config.devices = 4;
    double t[4];
    int i = 0;
    for (auto s : {parallel::Strategy::S1_GpuOnly, parallel::Strategy::S2_CpuOrchestrated,
                   parallel::Strategy::S3_Hybrid, parallel::Strategy::S4_BigMip}) {
      t[i++] = parallel::replay_strategy(s, searched, config).sim_seconds;
    }
    const bool holds = t[2] <= t[1] + 1e-12 && t[1] < t[0] && t[1] < t[3];
    bench::row("  %-8.2f %-13s %-13s %-13s %-13s %s", scale, human_seconds(t[0]).c_str(),
               human_seconds(t[1]).c_str(), human_seconds(t[2]).c_str(),
               human_seconds(t[3]).c_str(),
               holds ? "S3<=S2 < S1,S4: yes" : "S3<=S2 < S1,S4: NO");
  }
}

double crossover_for(const gpu::CostModelConfig& device) {
  const int m = 512, n = 768;
  double prev = 0.0;
  for (double density = 0.01; density <= 1.0; density += 0.01) {
    lp::LpOpStats ops;
    ops.m = m;
    ops.n = n;
    ops.nnz = static_cast<long>(density * m * n);
    ops.iterations = 2L * m;
    ops.ftran = ops.btran = ops.price_full = ops.eta_updates = ops.iterations;
    ops.refactor = ops.iterations / 64 + 1;
    gpu::Device dd(device), ds(device);
    lp::charge_to_device(dd, 0, ops, false);
    lp::charge_to_device(ds, 0, ops, true);
    const bool sparse_wins = ds.synchronize() < dd.synchronize();
    if (!sparse_wins) return prev;
    prev = density;
  }
  return 1.0;
}

void crossover_sensitivity() {
  bench::title("A1-b", "E6's dense/sparse crossover vs cost-model parameters");
  bench::row("  %-22s %-12s", "sparse_efficiency", "crossover");
  for (double eff : {0.015, 0.03, 0.06, 0.12, 0.24}) {
    gpu::CostModelConfig device;
    device.sparse_efficiency = eff;
    bench::row("  %-22.3f %-12.2f", eff, crossover_for(device));
  }
  bench::row("  %-22s %-12s", "divergence_penalty", "crossover");
  for (double penalty : {1.5, 3.0, 6.0}) {
    gpu::CostModelConfig device;
    device.divergence_penalty = penalty;
    bench::row("  %-22.1f %-12.2f", penalty, crossover_for(device));
  }
  bench::note("at production shapes SpMV is BANDWIDTH-bound (as on real GPUs), so the");
  bench::note("compute-efficiency knob barely moves the crossover unless it collapses the");
  bench::note("sparse path entirely; the warp-divergence penalty — the SIMD-mismatch the");
  bench::note("paper emphasizes — is what shifts it. The two-code-paths conclusion holds");
  bench::note("across the swept range.");
}

void eta_advantage_sensitivity() {
  bench::title("A1-c", "E3's eta-vs-refactorize advantage vs PCIe latency");
  const int m = 256;
  bench::row("  %-14s %-14s %-14s %-12s", "pcie-latency", "eta", "host-roundtrip",
             "roundtrip/eta");
  for (double latency : {2.5e-6, 10e-6, 40e-6}) {
    gpu::CostModelConfig cfg;
    cfg.pcie_latency = latency;
    gpu::Device device(cfg);
    linalg::DeviceMatrix dbinv =
        linalg::DeviceMatrix::upload(device, 0, linalg::Matrix::identity(m));
    Rng rng(1);
    linalg::Vector y(static_cast<std::size_t>(m));
    for (auto& v : y) v = rng.uniform(-1, 1);
    y[0] += 3.0;
    const linalg::Eta eta = linalg::Eta::from_ftran(y, 0);
    device.reset_stats();
    for (int i = 0; i < 16; ++i) linalg::dev_apply_eta(0, eta, dbinv);
    const double t_eta = device.synchronize() / 16;
    device.reset_stats();
    linalg::Matrix binv = linalg::Matrix::identity(m);
    for (int i = 0; i < 16; ++i) {
      eta.apply_to_matrix(binv);
      dbinv.assign(0, binv);
    }
    const double t_rt = device.synchronize() / 16;
    bench::row("  %-14s %-14s %-14s %.1fx", human_seconds(latency).c_str(),
               human_seconds(t_eta).c_str(), human_seconds(t_rt).c_str(), t_rt / t_eta);
  }
  bench::note("the round-trip penalty scales with link latency; the device-resident eta");
  bench::note("update is latency-independent — E3's conclusion is robust.");
}

}  // namespace

int main() {
  strategy_ordering();
  crossover_sensitivity();
  eta_advantage_sensitivity();
  gpumip::bench::write_exports();
}
