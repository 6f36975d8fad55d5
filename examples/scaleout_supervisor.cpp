// UG-style supervisor-worker scale-out (the ParaSCIP coordination pattern
// the paper builds on), with checkpoint/restart: solves a random MIP on a
// simulated rank fleet, writes a consistent snapshot mid-run, and restarts
// from it.
//
//   ./scaleout_supervisor [workers] [seed]
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/gpumip.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace gpumip;
  const int workers = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 17;

  Rng rng(seed);
  problems::RandomMipConfig cfg;
  cfg.rows = 14;
  cfg.cols = 24;
  cfg.bound = 4.0;
  mip::MipModel model = problems::random_mip(cfg, rng);
  std::printf("model: %d cols (%d integer), %d rows\n", model.num_cols(), model.num_integer(),
              model.num_rows());

  parallel::SupervisorOptions opts;
  opts.workers = workers;
  opts.worker_node_budget = 20;
  opts.ramp_up_nodes = 4 * workers;
  opts.mip.enable_cuts = false;  // resumable runs need a stable formulation
  opts.checkpoint_interval = 4;
  const std::string checkpoint_path = "/tmp/gpumip_checkpoint.snap";
  long checkpoints = 0;
  opts.on_checkpoint = [&](const mip::ConsistentSnapshot& snap) {
    std::ofstream out(checkpoint_path);
    snap.serialize(out);
    ++checkpoints;
  };

  parallel::SupervisorResult run = parallel::solve_supervised(model, opts);
  std::printf("\n[supervisor + %d workers]\n", workers);
  std::printf("  status %s, objective %.4f\n", mip::mip_status_name(run.result.status),
              run.result.objective);
  std::printf("  simulated makespan %s (ramp-up %s)\n", human_seconds(run.makespan).c_str(),
              human_seconds(run.ramp_up_seconds).c_str());
  std::printf("  %ld subproblems dispatched, %llu messages (%s), %ld checkpoints\n",
              run.subproblems_dispatched,
              static_cast<unsigned long long>(run.network.messages),
              human_bytes(run.network.bytes).c_str(), checkpoints);
  std::printf("  load balance (nodes/worker):");
  for (long nodes : run.worker_nodes) std::printf(" %ld", nodes);
  std::printf("\n");

  if (checkpoints > 0) {
    std::ifstream in(checkpoint_path);
    mip::ConsistentSnapshot snap = mip::ConsistentSnapshot::deserialize(in);
    std::printf("\n[restart from checkpoint: %zu frontier nodes, incumbent %s]\n",
                snap.frontier.size(), snap.has_incumbent() ? "yes" : "no");
    parallel::SupervisorOptions resume_opts = opts;
    resume_opts.checkpoint_interval = 0;
    parallel::SupervisorResult resumed = parallel::resume_supervised(model, snap, resume_opts);
    std::printf("  resumed run: status %s, objective %.4f (must match %.4f)\n",
                mip::mip_status_name(resumed.result.status),
                resumed.result.has_solution ? resumed.result.objective : 0.0,
                run.result.objective);
  }
  // GPUMIP_TRACE_OUT=trace.json dumps the per-rank timeline of everything
  // above (open in ui.perfetto.dev; analyze with gpumip-report --trace).
  const std::string traced = obs::trace::export_if_requested();
  if (!traced.empty()) std::printf("\ntrace written to %s\n", traced.c_str());
  return 0;
}
