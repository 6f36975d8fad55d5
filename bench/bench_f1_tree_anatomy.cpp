// F1 — Figure 1 reproduction: the branch-and-bound solution tree.
//
// The paper's only figure shows a B&B tree whose nodes end up tagged
// branched / feasible / infeasible / pruned, with no node left active at
// completion. This bench solves three instance families, prints the tree
// census (and the rendered tree for a small instance), and verifies the
// figure's invariant: total = branched + classified leaves, active = 0.
#include "bench/common.hpp"
#include "mip/solver.hpp"
#include "problems/generators.hpp"

namespace {

using namespace gpumip;

mip::MipOptions plain_options() {
  mip::MipOptions opts;
  opts.enable_cuts = false;       // keep the raw tree shape visible
  opts.enable_heuristics = false;
  return opts;
}

void census(const std::string& name, const mip::MipModel& model) {
  mip::BnbSolver solver(model, plain_options());
  mip::MipResult r = solver.solve();
  const mip::TreeAnatomy& a = r.stats.anatomy;
  bench::row("  %-16s %8s obj=%-10.3f nodes=%-5ld branched=%-5ld feas=%-4ld infeas=%-4ld "
             "pruned=%-4ld peak-frontier=%-4ld depth=%-3d consistent=%s",
             name.c_str(), mip::mip_status_name(r.status), r.objective, a.total_nodes,
             a.branched, a.feasible_leaves, a.infeasible_leaves, a.pruned_leaves,
             a.active_peak, a.max_depth,
             a.total_nodes == a.branched + a.leaves() ? "yes" : "NO");
}

void print_experiment() {
  bench::title("F1", "solution-tree anatomy (paper Figure 1)");
  Rng rng(2021);
  census("knapsack-18", problems::knapsack(18, rng));
  problems::RandomMipConfig cfg;
  cfg.rows = 10;
  cfg.cols = 16;
  cfg.bound = 3.0;
  census("random-mip", problems::random_mip(cfg, rng));
  census("set-cover", problems::set_cover(14, 10, rng));
  census("gap-3x6", problems::generalized_assignment(3, 6, rng));

  // Rendered tree of a tiny instance (the figure itself).
  mip::MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_int_col(1.0, 0, 10), y = m.add_int_col(1.0, 0, 10);
  m.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 5.0);
  m.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 7.0);
  mip::BnbSolver solver(m, plain_options());
  static_cast<void>(solver.solve());
  bench::note("rendered tree (max x+y st 2x+y<=5, x+3y<=7):");
  std::printf("%s", solver.pool().render_ascii().c_str());
}

}  // namespace

int main() {
  print_experiment();
  gpumip::bench::write_exports();
}
