// E8 — supervisor-worker scale-out (paper sections 2.2/2.3, claim C8).
//
// UG/ParaSCIP-style coordination over simmpi ranks: speedup vs worker
// count, ramp-up share, load-balance quality, message volume, and the cost
// of periodic checkpointing.
#include <cmath>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
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
    opts.model_worker_device = true;  // arena-backed per-node LP residency
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

void arena_ablation() {
  bench::title("E8-d", "per-node device allocs: naive alloc/free vs worker arena");
  mip::MipModel model = instance(505);
  bench::row("  %-9s %-12s %-14s %-12s", "arena", "makespan", "alloc-calls", "nodes");
  for (bool arena : {false, true}) {
    parallel::SupervisorOptions opts;
    opts.workers = 8;
    opts.worker_node_budget = 15;
    opts.ramp_up_nodes = 32;
    opts.mip.enable_cuts = false;
    opts.model_worker_device = true;
    opts.worker_arena = arena;
    const double before = obs::counter("gpumip.gpu.alloc.calls").value();
    parallel::SupervisorResult r = parallel::solve_supervised(model, opts);
    const double allocs = obs::counter("gpumip.gpu.alloc.calls").value() - before;
    long nodes = 0;
    for (long n : r.worker_nodes) nodes += n;
    bench::row("  %-9s %-12s %-14.0f %-12ld", arena ? "on" : "off",
               human_seconds(r.makespan).c_str(), allocs, nodes);
  }
  bench::note("the arena path reserves one slab per worker and suballocates node LPs from");
  bench::note("it (ROADMAP item 4): alloc calls collapse from O(nodes) to O(workers).");
}

void BM_supervised(benchmark::State& state) {
  mip::MipModel model = instance(504);
  parallel::SupervisorOptions opts;
  opts.workers = static_cast<int>(state.range(0));
  opts.worker_node_budget = 15;
  opts.mip.enable_cuts = false;
  double makespan = 0.0;
  for (auto _ : state) {
    parallel::SupervisorResult r = parallel::solve_supervised(model, opts);
    makespan = r.makespan;
    benchmark::DoNotOptimize(r.result.objective);
  }
  state.counters["sim_makespan_us"] = makespan * 1e6;
}
BENCHMARK(BM_supervised)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  checkpoint_overhead();
  budget_sweep();
  arena_ablation();
  return gpumip::bench::run_benchmarks(argc, argv);
}
