// E2 — consistent snapshots (paper section 2.1, claim C2).
//
// Sequentially, a consistent snapshot is free to define (the active set
// between evaluations); in parallel, in-flight assignments make it
// non-trivial. This bench measures snapshot size/cost along a sequential
// search, verifies resume-equality from every snapshot, and reports the
// supervisor's quiesced-checkpoint behaviour.
#include "bench/common.hpp"
#include "parallel/supervisor.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;

mip::MipModel instance(std::uint64_t seed) {
  Rng rng(seed);
  problems::RandomMipConfig cfg;
  cfg.rows = 12;
  cfg.cols = 20;
  cfg.bound = 4.0;
  return problems::random_mip(cfg, rng);
}

void sequential_snapshots() {
  bench::title("E2-a", "sequential snapshots along the search");
  mip::MipModel model = instance(71);
  std::vector<mip::ConsistentSnapshot> snaps;
  mip::MipOptions opts;
  opts.enable_cuts = false;
  opts.enable_heuristics = false;
  opts.snapshot_interval = 10;
  opts.on_snapshot = [&](const mip::ConsistentSnapshot& s) { snaps.push_back(s); };
  mip::BnbSolver solver(model, opts);
  mip::MipResult full = solver.solve();
  bench::row("  full solve: %s obj=%.4f nodes=%ld, %zu snapshots taken",
             mip::mip_status_name(full.status), full.objective, full.stats.nodes_evaluated,
             snaps.size());
  bench::row("  %-10s %-10s %-12s %-10s", "at-node", "frontier", "bytes", "resume-obj");
  mip::MipOptions resume_opts;
  resume_opts.enable_cuts = false;
  resume_opts.enable_heuristics = false;
  for (std::size_t i = 0; i < snaps.size(); i += std::max<std::size_t>(1, snaps.size() / 6)) {
    const auto& snap = snaps[i];
    const std::string serialized = snap.to_string();
    mip::BnbSolver resumed(model, resume_opts);
    mip::MipResult r = resumed.solve_from(snap);
    bench::row("  %-10ld %-10zu %-12s %-10.4f%s", snap.nodes_solved_so_far,
               snap.frontier.size(), human_bytes(serialized.size()).c_str(),
               r.has_solution ? r.objective : 0.0,
               std::abs(r.objective - full.objective) < 1e-6 ? "" : "  MISMATCH");
  }
  bench::note("expected shape: every snapshot resumes to the same optimum; snapshot bytes");
  bench::note("grow with the frontier, not with nodes already solved.");
}

void parallel_checkpoints() {
  bench::title("E2-b", "parallel (supervisor) checkpoints with in-flight accounting");
  mip::MipModel model = instance(72);
  long checkpoints = 0;
  std::size_t max_frontier = 0;
  parallel::SupervisorOptions opts;
  opts.workers = 4;
  opts.worker_node_budget = 10;
  opts.ramp_up_nodes = 12;
  opts.mip.enable_cuts = false;
  opts.checkpoint_interval = 2;
  opts.on_checkpoint = [&](const mip::ConsistentSnapshot& snap) {
    ++checkpoints;
    max_frontier = std::max(max_frontier, snap.frontier.size());
  };
  parallel::SupervisorResult with = parallel::solve_supervised(model, opts);
  opts.checkpoint_interval = 0;
  opts.on_checkpoint = nullptr;
  parallel::SupervisorResult without = parallel::solve_supervised(model, opts);
  bench::row("  with checkpoints   : obj=%.4f makespan=%s (%ld checkpoints, frontier<=%zu)",
             with.result.objective, human_seconds(with.makespan).c_str(), checkpoints,
             max_frontier);
  bench::row("  without checkpoints: obj=%.4f makespan=%s", without.result.objective,
             human_seconds(without.makespan).c_str());
  bench::note("checkpoints are only emitted at quiesced points (no in-flight subproblem):");
  bench::note("naive snapshots that ignore in-flight work would drop exactly those nodes.");
}

}  // namespace

int main() {
  sequential_snapshots();
  parallel_checkpoints();
  gpumip::bench::write_exports();
}
