// E9 — solution methods head-to-head (paper sections 2.3 / 4):
//   (a) three-way LP tournament — exterior point (revised simplex) vs
//       interior point (Mehrotra) vs restarted PDHG — cold sequential
//       solves across size and density, priced on the device cost model,
//   (b) entirely-GPU IVM branch-and-bound vs explicit-node CPU DFS on
//       permutation flow-shop (the Gmys et al. comparison),
//   (c) frontier-batched GPU knapsack B&B vs host DFS,
//   (d) the tournament batched: K co-resident relaxations in lockstep
//       waves, where the method-crossover surface gains its third axis
//       (batch occupancy). docs/METHODS.md narrates the committed output.
#include "bench/common.hpp"
#include "ivm/gpu_bnb.hpp"
#include "ivm/knapsack_bnb.hpp"
#include "lp/batched_lp.hpp"
#include "lp/interior_point.hpp"
#include "lp/path_chooser.hpp"
#include "lp/pdhg.hpp"
#include "lp/simplex.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace {

using namespace gpumip;

const char* short_method(lp::LpMethod m) {
  switch (m) {
    case lp::LpMethod::Simplex: return "spx";
    case lp::LpMethod::InteriorPoint: return "ipm";
    case lp::LpMethod::Pdhg: return "pdhg";
  }
  return "?";
}

void three_way_sequential() {
  bench::title("E9-a", "three-way LP tournament: cold sequential solves");
  bench::row("  %-12s %-9s %-8s %-8s %-8s %-11s %-11s %-11s %-7s %-8s %-6s", "size", "density",
             "spx-it", "ipm-it", "pdhg-it", "spx-sim", "ipm-sim", "pdhg-sim", "winner",
             "chooser", "agree");
  Rng rng(601);
  lp::PdhgOptions popts;
  popts.tol = 1e-6;
  for (int size : {64, 256}) {
    for (double density : {0.02, 0.30}) {
      lp::LpModel model = problems::sparse_lp(size, size * 3 / 2, density, rng);
      const lp::StandardForm form = lp::build_standard_form(model);
      lp::SimplexSolver spx(form);
      lp::LpResult rs = spx.solve_default();
      lp::InteriorPointSolver ipm(form);
      lp::LpResult ri = ipm.solve_default();
      lp::PdhgSolver pdhg(form, popts);
      lp::LpResult rp = pdhg.solve_default();
      auto replay = [&](const lp::LpOpStats& ops) {
        gpu::Device device;
        lp::charge_to_device(device, 0, ops, density < 0.3);
        return device.synchronize();
      };
      const double s_spx = replay(rs.ops), s_ipm = replay(ri.ops), s_pdhg = replay(rp.ops);
      const lp::LpMethod winner = s_spx <= s_ipm && s_spx <= s_pdhg ? lp::LpMethod::Simplex
                                  : s_ipm <= s_pdhg               ? lp::LpMethod::InteriorPoint
                                                                  : lp::LpMethod::Pdhg;
      lp::MethodContext ctx;
      ctx.tol = popts.tol;
      const lp::LpMethod predicted = lp::choose_method(form.a_rows, ctx);
      const bool agree =
          rs.status == lp::LpStatus::Optimal && ri.status == lp::LpStatus::Optimal &&
          rp.status == lp::LpStatus::Optimal &&
          std::abs(rs.objective - ri.objective) < 1e-4 * (1 + std::abs(rs.objective)) &&
          std::abs(rs.objective - rp.objective) < 1e-3 * (1 + std::abs(rs.objective));
      bench::row("  %4dx%-7d %-9.2f %-8ld %-8ld %-8ld %-11s %-11s %-11s %-7s %-8s %-6s", size,
                 size * 3 / 2, density, rs.iterations, ri.iterations, rp.iterations,
                 human_seconds(s_spx).c_str(), human_seconds(s_ipm).c_str(),
                 human_seconds(s_pdhg).c_str(), short_method(winner), short_method(predicted),
                 agree ? "yes" : "NO");
    }
  }
  bench::note("expected shape: one small LP at a time cannot pay PDHG's per-iteration kernel");
  bench::note("launches — simplex takes small instances, IPM (few heavy Cholesky iterations)");
  bench::note("takes large ones. Sequential PDHG never wins a cell; it needs E9-d's batching.");
}

void three_way_batched() {
  bench::title("E9-d", "three-way tournament, batched: K sibling relaxations in lockstep");
  bench::row("  %-12s %-9s %-5s %-8s %-11s %-11s %-11s %-7s %-8s", "size", "density", "K",
             "pdhg-it", "spx-lock", "ipm-seq", "pdhg-lock", "winner", "chooser");
  Rng rng(611);
  lp::PdhgOptions popts;
  popts.tol = 1e-4;  // relaxation-grade: B&B pads bounds by the tol anyway
  struct Cell {
    int size;
    double density;
    int batch;
  };
  for (const Cell& cell : {Cell{96, 0.30, 8}, Cell{96, 0.02, 8}, Cell{96, 0.30, 192},
                           Cell{96, 0.02, 192}}) {
    // A realistic device batch is K sibling node relaxations: the same LP
    // under K different bound tightenings (so per-instance iteration counts
    // cluster and the lockstep tail stays short).
    lp::LpModel base = problems::sparse_lp(cell.size, cell.size * 3 / 2, cell.density, rng);
    const lp::StandardForm base_form = lp::build_standard_form(base);
    std::vector<std::unique_ptr<lp::StandardForm>> storage;
    std::vector<const lp::StandardForm*> views;
    for (int i = 0; i < cell.batch; ++i) {
      auto form = std::make_unique<lp::StandardForm>(base_form);
      const int tighten = 1 + static_cast<int>(rng.index(4));
      for (int t = 0; t < tighten; ++t) {
        const std::size_t j = rng.index(static_cast<std::size_t>(base.num_cols()));
        if (form->ub[j] > form->lb[j]) {
          form->ub[j] = form->lb[j] + 0.8 * (form->ub[j] - form->lb[j]);
        }
      }
      storage.push_back(std::move(form));
      views.push_back(storage.back().get());
    }
    double s_spx = 0, s_ipm = 0, s_pdhg = 0;
    long pdhg_iters = 0;
    {
      gpu::Device device;
      s_spx = lp::solve_batched(views, device, lp::BatchMode::Lockstep).sim_seconds;
    }
    {
      // No batched IPM exists: its contender is the per-instance recipe
      // replayed back-to-back on one stream (each Cholesky already fills
      // the device reasonably well; batching buys IPM the least).
      gpu::Device device;
      for (const lp::StandardForm* form : views) {
        lp::InteriorPointSolver ipm(*form);
        lp::charge_to_device(device, 0, ipm.solve_default().ops, cell.density < 0.3);
      }
      s_ipm = device.synchronize();
    }
    {
      gpu::Device device;
      lp::BatchedLpReport r = lp::solve_batched_pdhg(views, device, popts);
      s_pdhg = r.sim_seconds;
      for (const lp::LpResult& res : r.results) {
        pdhg_iters = std::max(pdhg_iters, res.ops.iterations);
      }
    }
    const lp::LpMethod winner = s_spx <= s_ipm && s_spx <= s_pdhg ? lp::LpMethod::Simplex
                                : s_ipm <= s_pdhg               ? lp::LpMethod::InteriorPoint
                                                                : lp::LpMethod::Pdhg;
    lp::MethodContext ctx;
    ctx.batch_size = cell.batch;
    ctx.tol = popts.tol;
    const lp::LpMethod predicted = lp::choose_method(views[0]->a_rows, ctx);
    bench::row("  %4dx%-7d %-9.2f %-5d %-8ld %-11s %-11s %-11s %-7s %-8s", cell.size,
               cell.size * 3 / 2, cell.density, cell.batch, pdhg_iters,
               human_seconds(s_spx).c_str(), human_seconds(s_ipm).c_str(),
               human_seconds(s_pdhg).c_str(), short_method(winner), short_method(predicted));
  }
  bench::note("expected shape: a simplex lockstep wave moves K*m^2 dense bytes, a PDHG wave");
  bench::note("K*nnz sparse bytes; at high occupancy on sparse instances PDHG's cheap waves");
  bench::note("overtake both the dense waves and IPM's serialized Cholesky chain — the");
  bench::note("(density x size x occupancy) crossover cell docs/METHODS.md walks through.");
}

void ivm_comparison() {
  bench::title("E9-b", "flow-shop B&B: CPU explicit nodes vs host IVM vs GPU IVM fleet");
  bench::row("  %-12s %-12s %-10s %-12s %-12s %-10s %-12s", "instance", "engine", "optimum",
             "nodes", "sim-time", "waves", "PCIe-bytes");
  Rng rng(602);
  for (int jobs : {8, 9, 10}) {
    ivm::FlowshopInstance inst = ivm::FlowshopInstance::random(4, jobs, rng);
    const std::string name = "4m x " + std::to_string(jobs) + "j";
    {
      WallTimer t;
      ivm::BnbStats r = ivm::solve_flowshop_cpu(inst);
      // Host cost: bound evaluations at CPU rates.
      const double sim = static_cast<double>(r.nodes_bounded) *
                         (4.0 * inst.machines * inst.jobs / lp::CpuCostModel{}.flops +
                          lp::CpuCostModel{}.per_op_overhead);
      bench::row("  %-12s %-12s %-10.0f %-12ld %-12s %-10s %-12s", name.c_str(), "cpu-dfs",
                 r.best_makespan, r.nodes_bounded, human_seconds(sim).c_str(), "-", "-");
    }
    {
      ivm::BnbStats r = ivm::solve_flowshop_ivm_host(inst);
      const double sim = static_cast<double>(r.nodes_bounded) *
                         (4.0 * inst.machines * inst.jobs / lp::CpuCostModel{}.flops +
                          lp::CpuCostModel{}.per_op_overhead);
      bench::row("  %-12s %-12s %-10.0f %-12ld %-12s %-10s %-12s", name.c_str(), "ivm-host",
                 r.best_makespan, r.nodes_bounded, human_seconds(sim).c_str(), "-", "-");
    }
    for (int fleet : {16, 128}) {
      gpu::Device device;
      ivm::GpuBnbOptions opts;
      opts.num_ivms = fleet;
      ivm::BnbStats r = ivm::solve_flowshop_gpu(inst, device, opts);
      bench::row("  %-12s ivm-gpu-%-4d %-10.0f %-12ld %-12s %-10ld %-12s", name.c_str(), fleet,
                 r.best_makespan, r.nodes_bounded,
                 human_seconds(device.synchronize()).c_str(), r.kernel_waves,
                 human_bytes(device.stats().bytes_h2d + device.stats().bytes_d2h).c_str());
    }
  }
  bench::note("expected shape: all engines agree on the optimum; the GPU fleet explores more");
  bench::note("nodes (weaker pruning order, interval parallelism) but runs them in few");
  bench::note("divergent waves with almost no PCIe traffic — the IVM argument.");
}

void knapsack_comparison() {
  bench::title("E9-c", "knapsack B&B: host DFS vs frontier-batched device engine");
  bench::row("  %-8s %-12s %-12s %-12s %-12s", "items", "optimum", "cpu-nodes", "gpu-nodes",
             "gpu-waves");
  Rng rng(603);
  for (int items : {16, 20, 24}) {
    ivm::KnapsackInstance inst = ivm::KnapsackInstance::random(items, rng);
    ivm::KnapsackResult cpu = ivm::solve_knapsack_cpu(inst);
    gpu::Device device;
    ivm::KnapsackResult gpu_r = ivm::solve_knapsack_gpu(inst, device);
    bench::row("  %-8d %-12.0f %-12ld %-12ld %-12ld%s", items, cpu.best_value, cpu.nodes,
               gpu_r.nodes, gpu_r.kernel_waves,
               cpu.best_value == gpu_r.best_value ? "" : "  MISMATCH");
  }
}

void BM_simplex(benchmark::State& state) {
  Rng rng(604);
  lp::LpModel model = problems::dense_lp(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(0)) * 3 / 2, rng);
  const lp::StandardForm form = lp::build_standard_form(model);
  for (auto _ : state) {
    lp::SimplexSolver solver(form);
    lp::LpResult r = solver.solve_default();
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_simplex)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

void BM_ipm(benchmark::State& state) {
  Rng rng(605);
  lp::LpModel model = problems::dense_lp(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(0)) * 3 / 2, rng);
  const lp::StandardForm form = lp::build_standard_form(model);
  for (auto _ : state) {
    lp::InteriorPointSolver solver(form);
    lp::LpResult r = solver.solve_default();
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_ipm)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

void BM_pdhg(benchmark::State& state) {
  Rng rng(606);
  lp::LpModel model = problems::sparse_lp(static_cast<int>(state.range(0)),
                                          static_cast<int>(state.range(0)) * 3 / 2, 0.05, rng);
  const lp::StandardForm form = lp::build_standard_form(model);
  for (auto _ : state) {
    lp::PdhgSolver solver(form);
    lp::LpResult r = solver.solve_default();
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_pdhg)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  three_way_sequential();
  ivm_comparison();
  knapsack_comparison();
  three_way_batched();
  return gpumip::bench::run_benchmarks(argc, argv);
}
