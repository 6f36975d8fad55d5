// E6 — dense vs sparse code paths and the runtime crossover (paper
// section 5.4, claim C6).
//
// The same LP relaxation is priced through both code paths: dense kernels
// (bandwidth-bound, uniform warps) and sparse kernels (per-nonzero work at
// the sparse efficiency with divergence). Sweeping matrix density locates
// the crossover and checks that lp::choose_path picks the right side.
#include "bench/common.hpp"
#include "lp/path_chooser.hpp"
#include "lp/simplex.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;

struct PathTimes {
  double dense = 0.0;
  double sparse = 0.0;
  long iterations = 0;
};

/// Prices one LP-solve recipe through both code paths.
PathTimes price_ops(const lp::LpOpStats& ops) {
  PathTimes out;
  out.iterations = ops.iterations;
  {
    gpu::Device device;
    lp::charge_to_device(device, 0, ops, /*sparse_pricing=*/false);
    out.dense = device.synchronize();
  }
  {
    gpu::Device device;
    lp::charge_to_device(device, 0, ops, /*sparse_pricing=*/true);
    out.sparse = device.synchronize();
  }
  return out;
}

/// A representative simplex recipe for an m x n problem: ~2m iterations,
/// one FTRAN/BTRAN/pricing/eta per iteration, refactor every 64.
lp::LpOpStats synthetic_recipe(int m, int n, double density) {
  lp::LpOpStats ops;
  ops.m = m;
  ops.n = n;
  ops.nnz = static_cast<long>(density * m * n);
  ops.iterations = 2L * m;
  ops.ftran = ops.btran = ops.price_full = ops.eta_updates = ops.iterations;
  ops.refactor = ops.iterations / 64 + 1;
  return ops;
}

void print_experiment() {
  bench::title("E6", "dense vs sparse LP code path across matrix density");
  // Production-scale shapes (the regime the paper talks about): kernels
  // leave the launch-latency floor and the per-nonzero asymmetry shows.
  const int rows = 512, cols = 768;
  bench::row("  problem shape %d x %d, simplex recipe of %ld iterations", rows, cols,
             synthetic_recipe(rows, cols, 1.0).iterations);
  bench::row("  %-9s %-10s %-13s %-13s %-8s %-12s", "density", "nnz", "dense-path",
             "sparse-path", "winner", "chooser");
  double crossover = -1.0;
  double prev_density = 0.0;
  bool prev_sparse_won = true;
  Rng rng(301);
  for (double density : {0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.60, 0.80, 1.00}) {
    const lp::LpOpStats ops = synthetic_recipe(rows, cols, density);
    const PathTimes t = price_ops(ops);
    const bool sparse_wins = t.sparse < t.dense;
    if (prev_sparse_won && !sparse_wins && crossover < 0) {
      crossover = 0.5 * (prev_density + density);
    }
    prev_sparse_won = sparse_wins;
    prev_density = density;
    // A structurally matching random matrix for the chooser.
    std::vector<sparse::Triplet> triplets;
    for (long e = 0; e < ops.nnz; ++e) {
      triplets.push_back({static_cast<int>(rng.index(static_cast<std::size_t>(rows))),
                          static_cast<int>(rng.index(static_cast<std::size_t>(cols))), 1.0});
    }
    const sparse::Csr matrix = sparse::csr_from_triplets(rows, cols, triplets);
    bench::row("  %-9.2f %-10ld %-13s %-13s %-8s %-12s", density, ops.nnz,
               human_seconds(t.dense).c_str(), human_seconds(t.sparse).c_str(),
               sparse_wins ? "sparse" : "dense",
               lp::code_path_name(lp::choose_path(matrix)));
  }
  if (crossover > 0) {
    bench::row("  measured crossover ~ %.2f (chooser threshold %.2f)", crossover,
               lp::kDensityThreshold);
  }
  bench::note("expected shape: sparse path wins at low density, dense at high; the runtime");
  bench::note("chooser's threshold sits near the measured crossover.");

  // Cross-check on a real (small) solve: at this scale both paths sit on
  // the kernel-launch latency floor, so they nearly tie — the paper's
  // latency argument for small problems (section 5.5).
  lp::LpModel small = problems::sparse_lp(100, 150, 0.05, rng);
  const lp::StandardForm form = lp::build_standard_form(small);
  lp::SimplexSolver solver(form);
  lp::LpResult r = solver.solve_default();
  if (r.status == lp::LpStatus::Optimal) {
    const PathTimes t = price_ops(r.ops);
    bench::row("  real 100x150 solve at density 0.05: dense %s vs sparse %s (latency floor)",
               human_seconds(t.dense).c_str(), human_seconds(t.sparse).c_str());
  }
}

void memory_comparison() {
  bench::title("E6-b", "device memory: dense image vs CSR at each density");
  const int rows = 512, cols = 1024;
  bench::row("  %-9s %-14s %-14s %-8s", "density", "dense-bytes", "csr-bytes", "ratio");
  Rng rng(302);
  for (double density : {0.02, 0.10, 0.30, 1.00}) {
    lp::LpModel model = problems::sparse_lp(rows, cols, density, rng);
    const sparse::Csr a = model.matrix();
    const std::uint64_t dense_bytes = static_cast<std::uint64_t>(rows) * cols * sizeof(double);
    const std::uint64_t csr_bytes = a.values.size() * sizeof(double) +
                                    a.col_index.size() * sizeof(int) +
                                    a.row_start.size() * sizeof(int);
    bench::row("  %-9.2f %-14s %-14s %.2f", density, human_bytes(dense_bytes).c_str(),
               human_bytes(csr_bytes).c_str(),
               static_cast<double>(csr_bytes) / static_cast<double>(dense_bytes));
  }
}

}  // namespace

int main() {
  print_experiment();
  memory_comparison();
  gpumip::bench::write_exports();
}
