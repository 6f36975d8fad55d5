// E4 — cut-generation round trip (paper section 5.2, claim C4).
//
// Until GPU cut generators exist, each cut round costs: download the
// current relaxation state (D2H), separate cuts on the CPU, upload the new
// rows (H2D), update the device matrix, re-solve. The bench measures that
// loop on the simulated device across matrix sizes and cut batch sizes —
// showing the latency floor and how batching cuts amortizes it.
#include "bench/common.hpp"
#include "linalg/device_blas.hpp"
#include "lp/simplex.hpp"
#include "mip/cuts.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;

/// Simulated cost of one cut round on an m x n dense relaxation with
/// `cuts_per_round` cuts incorporated at once.
struct RoundCost {
  double download = 0.0;
  double host_separation = 0.0;
  double upload = 0.0;
  double device_update = 0.0;
  double total() const { return download + host_separation + upload + device_update; }
};

RoundCost cut_round(gpu::Device& device, int m, int n, int cuts_per_round) {
  RoundCost cost;
  const std::size_t mn = static_cast<std::size_t>(m) * n;
  gpu::DeviceBuffer matrix = device.alloc_doubles(mn + static_cast<std::size_t>(cuts_per_round) * n,
                                                  "e4.matrix");
  std::vector<double> host(mn);
  device.reset_stats();

  // D2H: fetch the relaxation (solution + the rows the separator inspects).
  double t0 = device.synchronize();
  device.copy_d2h(0, matrix, host.data(), mn * sizeof(double));
  cost.download = device.synchronize() - t0;

  // Host separation cost (charged at CPU rates: one pass over the matrix
  // per cut family).
  lp::CpuCostModel cpu;
  cost.host_separation = 2.0 * static_cast<double>(mn) / cpu.sparse_flops +
                         cuts_per_round * 1e-6;

  // H2D: ship only the generated rows.
  t0 = device.synchronize();
  device.copy_h2d(0, matrix, host.data(),
                  static_cast<std::size_t>(cuts_per_round) * n * sizeof(double),
                  mn * sizeof(double));
  // Device-side incorporation: append rows + refresh factors (m² kernel).
  gpu::KernelCost update = gpu::KernelCost::dense(2.0 * m * n, static_cast<double>(mn));
  update.occupancy = linalg::occupancy_for_elements(mn);
  device.launch(0, update, {});
  const double t1 = device.synchronize();
  cost.upload = 0.0;  // folded into device_update below
  cost.device_update = t1 - t0;
  return cost;
}

void print_experiment() {
  bench::title("E4", "cut incorporation round trip (device->host->device)");
  bench::row("  %-10s %-8s %-12s %-12s %-12s %-14s %-14s", "size", "cuts", "download",
             "separation", "incorporate", "total", "per-cut");
  for (int m : {64, 256}) {
    const int n = 2 * m;
    for (int cuts : {1, 4, 16, 64}) {
      gpu::Device device;
      const RoundCost c = cut_round(device, m, n, cuts);
      bench::row("  %4dx%-5d %-8d %-12s %-12s %-12s %-14s %-14s", m, n, cuts,
                 human_seconds(c.download).c_str(), human_seconds(c.host_separation).c_str(),
                 human_seconds(c.device_update).c_str(), human_seconds(c.total()).c_str(),
                 human_seconds(c.total() / cuts).c_str());
    }
  }
  bench::note("expected shape: per-cut cost falls sharply with batch size (PCIe latency and");
  bench::note("the matrix download amortize); the D2H fetch dominates small matrices.");
}

void real_cut_rounds() {
  bench::title("E4-b", "real GMI separation on the solver (root cut loop)");
  Rng rng(91);
  problems::RandomMipConfig cfg;
  cfg.rows = 10;
  cfg.cols = 12;
  cfg.integer_fraction = 1.0;
  cfg.bound = 3.0;
  for (int trial = 0; trial < 3; ++trial) {
    mip::MipModel model = problems::random_mip(cfg, rng);
    const lp::StandardForm form = lp::build_standard_form(model.lp());
    lp::SimplexSolver solver(form);
    lp::LpResult root = solver.solve_default();
    if (root.status != lp::LpStatus::Optimal) continue;
    mip::CutOptions copts;
    copts.max_cuts = 16;
    auto cuts = mip::gomory_cuts(model, form, root, copts);
    double max_violation = 0.0;
    for (const auto& cut : cuts) max_violation = std::max(max_violation, cut.violation(root.x));
    bench::row("  trial %d: LP obj %-10.4f -> %zu GMI cuts, max violation %.4f", trial,
               root.objective, cuts.size(), max_violation);
  }
}

}  // namespace

int main() {
  print_experiment();
  real_cut_rounds();
  gpumip::bench::write_exports();
}
