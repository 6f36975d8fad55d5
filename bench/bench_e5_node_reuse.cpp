// E5 — matrix reuse across tree nodes (paper section 5.3, claim C5).
//
// A GPU-aware node-selection policy keeps evaluating children of the node
// whose matrix/basis is already device-resident, instead of jumping
// best-first across the tree. The bench compares the policies on identical
// MIPs: hot-node fraction, transfer volume per node, and simulated time
// under strategy S2.
#include "bench/common.hpp"
#include "parallel/strategies.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;

void compare_policies(std::uint64_t seed) {
  Rng rng(seed);
  problems::RandomMipConfig cfg;
  cfg.rows = 12;
  cfg.cols = 22;
  cfg.bound = 4.0;
  mip::MipModel model = problems::random_mip(cfg, rng);

  bench::row("  instance seed=%llu (%d cols, %d rows)", static_cast<unsigned long long>(seed),
             model.num_cols(), model.num_rows());
  bench::row("  %-14s %-9s %-8s %-10s %-14s %-12s %-12s", "policy", "obj", "nodes",
             "hot-frac", "H2D/node", "sim", "vs-best-first");
  double baseline = 0.0;
  for (auto policy : {mip::NodeSelection::BestFirst, mip::NodeSelection::DepthFirst,
                      mip::NodeSelection::GpuLocality}) {
    parallel::StrategyConfig config;
    config.mip.enable_cuts = false;
    config.mip.enable_heuristics = false;
    config.mip.node_selection = policy;
    parallel::StrategyReport r =
        parallel::run_strategy(parallel::Strategy::S2_CpuOrchestrated, model, config);
    const long nodes = std::max<long>(1, r.result.stats.nodes_evaluated);
    const double hot = static_cast<double>(r.result.stats.hot_nodes) / nodes;
    const double h2d_per_node = static_cast<double>(r.bytes_h2d) / nodes;
    if (policy == mip::NodeSelection::BestFirst) baseline = r.sim_seconds;
    bench::row("  %-14s %-9.3f %-8ld %-10.2f %-10s %-14s %.2fx",
               mip::node_selection_name(policy), r.result.objective,
               r.result.stats.nodes_evaluated, hot, human_bytes(static_cast<std::uint64_t>(h2d_per_node)).c_str(),
               human_seconds(r.sim_seconds).c_str(), baseline / r.sim_seconds);
  }
}

void print_experiment() {
  bench::title("E5", "GPU-locality-aware node selection vs best/depth-first (strategy S2)");
  for (std::uint64_t seed : {201u, 202u, 203u}) compare_policies(seed);
  bench::note("expected shape: gpu-locality raises the hot-node fraction ~15-40x over");
  bench::note("best-first and cuts H2D bytes per node ~3x (no bounds/basis reload, one");
  bench::note("refactorization saved per hot node). The measured trade-off: locality");
  bench::note("explores more nodes than best-first (worse bound order), so on these small");
  bench::note("LPs — where a node costs only a few kernel launches — best-first still wins");
  bench::note("end-to-end. The policy pays off when the per-node transfer+refactor saving");
  bench::note("outweighs the node premium, i.e. for the large device-resident matrices the");
  bench::note("paper targets (m^3 refactorization, MB-scale bound vectors). Exactly the");
  bench::note("'qualitatively different scheduling' trade-off section 5.3 calls out.");
}

}  // namespace

int main() {
  print_experiment();
  gpumip::bench::write_exports();
}
