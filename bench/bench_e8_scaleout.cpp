// E8 — supervisor-worker scale-out (paper sections 2.2/2.3, claim C8).
//
// UG/ParaSCIP-style coordination over simmpi ranks: speedup vs worker
// count, ramp-up share, load-balance quality, message volume, and the cost
// of periodic checkpointing.
#include <cmath>

#include "bench/common.hpp"
#include "parallel/supervisor.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;

mip::MipModel instance(std::uint64_t seed) {
  Rng rng(seed);
  problems::RandomMipConfig cfg;
  cfg.rows = 16;
  cfg.cols = 28;
  cfg.bound = 4.0;
  return problems::random_mip(cfg, rng);
}

double balance_cv(const std::vector<long>& nodes) {
  if (nodes.empty()) return 0.0;
  double mean = 0.0;
  for (long n : nodes) mean += static_cast<double>(n);
  mean /= static_cast<double>(nodes.size());
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (long n : nodes) var += (n - mean) * (n - mean);
  return std::sqrt(var / static_cast<double>(nodes.size())) / mean;
}

void print_experiment() {
  bench::title("E8", "scale-out: speedup, ramp-up, load balance, traffic");
  mip::MipModel model = instance(501);
  bench::row("  instance: %d cols, %d rows", model.num_cols(), model.num_rows());
  bench::row("  %-9s %-10s %-12s %-9s %-10s %-10s %-9s %-10s", "workers", "obj",
             "makespan", "speedup", "ramp-up%", "balance-cv", "msgs", "bytes");
  double base = 0.0;
  for (int workers : {1, 2, 4, 8, 16, 32}) {
    parallel::SupervisorOptions opts;
    opts.workers = workers;
    opts.worker_node_budget = 15;
    opts.ramp_up_nodes = 4L * workers;
    opts.mip.enable_cuts = false;
    parallel::SupervisorResult r = parallel::solve_supervised(model, opts);
    if (workers == 1) base = r.makespan;
    bench::row("  %-9d %-10.3f %-12s %-9.2f %-10.1f %-10.2f %-9llu %-10s", workers,
               r.result.objective, human_seconds(r.makespan).c_str(), base / r.makespan,
               100.0 * r.ramp_up_seconds / r.makespan, balance_cv(r.worker_nodes),
               static_cast<unsigned long long>(r.network.messages),
               human_bytes(r.network.bytes).c_str());
  }
  bench::note("expected shape: near-linear speedup at small worker counts, flattening as");
  bench::note("ramp-up (serial) and the shrinking frontier starve workers; message volume");
  bench::note("grows with workers (the coordination overhead the paper attributes to UG).");
}

void checkpoint_overhead() {
  bench::title("E8-b", "checkpointing overhead");
  mip::MipModel model = instance(502);
  for (int interval : {0, 8, 2}) {
    parallel::SupervisorOptions opts;
    opts.workers = 4;
    opts.worker_node_budget = 15;
    opts.ramp_up_nodes = 16;
    opts.mip.enable_cuts = false;
    long checkpoints = 0;
    if (interval > 0) {
      opts.checkpoint_interval = interval;
      opts.on_checkpoint = [&](const mip::ConsistentSnapshot&) { ++checkpoints; };
    }
    parallel::SupervisorResult r = parallel::solve_supervised(model, opts);
    bench::row("  interval=%-3d -> %ld checkpoints, makespan %s, obj %.3f", interval,
               checkpoints, human_seconds(r.makespan).c_str(), r.result.objective);
  }
}

void budget_sweep() {
  bench::title("E8-c", "worker node-budget (load-balancing granularity)");
  mip::MipModel model = instance(503);
  bench::row("  %-9s %-12s %-12s %-10s %-9s", "budget", "makespan", "dispatched",
             "balance-cv", "msgs");
  for (long budget : {5, 15, 50, 200}) {
    parallel::SupervisorOptions opts;
    opts.workers = 8;
    opts.worker_node_budget = budget;
    opts.ramp_up_nodes = 32;
    opts.mip.enable_cuts = false;
    parallel::SupervisorResult r = parallel::solve_supervised(model, opts);
    bench::row("  %-9ld %-12s %-12ld %-10.2f %-9llu", budget,
               human_seconds(r.makespan).c_str(), r.subproblems_dispatched,
               balance_cv(r.worker_nodes),
               static_cast<unsigned long long>(r.network.messages));
  }
  bench::note("small budgets balance load at the price of traffic; large budgets starve");
  bench::note("late-arriving workers — the supervisor's classic granularity trade-off.");
}

}  // namespace

int main() {
  print_experiment();
  checkpoint_overhead();
  budget_sweep();
  gpumip::bench::write_exports();
}
