// E7 — concurrent solution of many small problems (paper section 5.5,
// claim C7).
//
// One small LP cannot fill the device: launch overhead and low occupancy
// dominate. Three execution modes for a batch of K small basis solves
// (LU factor + triangular solves, the kernel core of a relaxation):
//   (a) one-at-a-time on a single stream,
//   (b) round-robin across concurrent streams (CUDA-streams style),
//   (c) a single MAGMA-style batched launch.
// Simulated throughput vs K shows the streams ceiling (parallel_slots) and
// the batched mode's occupancy win; the memory ceiling bounds K.
#include <memory>

#include "bench/common.hpp"
#include "linalg/batched.hpp"
#include "lp/batched_lp.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;
using linalg::Matrix;

std::vector<Matrix> make_batch(int count, int n, Rng& rng) {
  std::vector<Matrix> mats;
  for (int i = 0; i < count; ++i) {
    Matrix a = Matrix::random(n, n, rng);
    for (int d = 0; d < n; ++d) a(d, d) += 4.0;
    mats.push_back(std::move(a));
  }
  return mats;
}

// All three modes start from device-resident data (matrices uploaded and
// stats reset before timing): the comparison isolates kernel execution —
// launch overhead, occupancy, and stream concurrency — as in section 5.5.

double run_sequential(const std::vector<Matrix>& mats) {
  gpu::Device device;
  std::vector<linalg::DeviceMatrix> dmats;
  std::vector<linalg::DeviceVector> rhs;
  for (const Matrix& m : mats) {
    dmats.push_back(linalg::DeviceMatrix::upload(device, 0, m));
    rhs.emplace_back(device, m.rows());
  }
  device.synchronize();
  device.reset_stats();
  for (std::size_t i = 0; i < dmats.size(); ++i) {
    auto pivots = linalg::dev_getrf(0, dmats[i]);
    linalg::dev_getrs(0, dmats[i], pivots, rhs[i]);
  }
  return device.synchronize();
}

double run_streams(const std::vector<Matrix>& mats, int streams) {
  gpu::Device device;
  std::vector<gpu::StreamId> ids = {0};
  for (int s = 1; s < streams; ++s) ids.push_back(device.create_stream());
  std::vector<linalg::DeviceMatrix> dmats;
  std::vector<linalg::DeviceVector> rhs;
  for (const Matrix& m : mats) {
    dmats.push_back(linalg::DeviceMatrix::upload(device, 0, m));
    rhs.emplace_back(device, m.rows());
  }
  device.synchronize();
  device.reset_stats();
  for (std::size_t i = 0; i < dmats.size(); ++i) {
    const gpu::StreamId stream = ids[i % ids.size()];
    auto pivots = linalg::dev_getrf(stream, dmats[i]);
    linalg::dev_getrs(stream, dmats[i], pivots, rhs[i]);
  }
  return device.synchronize();
}

double run_batched(const std::vector<Matrix>& mats) {
  gpu::Device device;
  auto batch = linalg::DeviceBatch::upload(device, 0, mats);
  linalg::DeviceVector rhs(device, batch.n() * batch.count());
  device.synchronize();
  device.reset_stats();
  auto pivots = linalg::batched_getrf(0, batch);
  linalg::batched_getrs(0, batch, pivots, rhs);
  return device.synchronize();
}

void print_experiment() {
  bench::title("E7", "small-problem concurrency: sequential vs streams vs batched");
  const int n = 24;
  bench::row("  basis size m=%d; throughput in problems per simulated second", n);
  bench::row("  %-7s %-16s %-16s %-16s %-14s %-14s", "K", "sequential", "16-streams",
             "batched", "streams/seq", "batched/seq");
  Rng rng(401);
  for (int k : {1, 4, 16, 64, 256, 1024}) {
    auto mats = make_batch(k, n, rng);
    const double t_seq = run_sequential(mats);
    const double t_str = run_streams(mats, 16);
    const double t_bat = run_batched(mats);
    bench::row("  %-7d %-16.0f %-16.0f %-16.0f %-14.1f %-14.1f", k, k / t_seq, k / t_str,
               k / t_bat, t_seq / t_str, t_seq / t_bat);
  }
  bench::note("expected shape: streams help up to parallel_slots (16x); the batched launch");
  bench::note("keeps winning beyond that because one big kernel reaches full occupancy and");
  bench::note("pays launch overhead and transfer latency once.");
}

void memory_ceiling() {
  bench::title("E7-b", "device-memory ceiling on the batch size");
  const int n = 64;
  bench::row("  %-14s %-12s", "device-memory", "max-batch(m=64)");
  for (std::uint64_t mem : {64ull << 20, 1ull << 30, 16ull << 30}) {
    const std::uint64_t per_problem = static_cast<std::uint64_t>(n) * n * sizeof(double) +
                                      static_cast<std::uint64_t>(n) * sizeof(double);
    bench::row("  %-14s %llu", human_bytes(mem).c_str(),
               static_cast<unsigned long long>(mem / per_problem));
  }
  bench::note("the paper's example: a 1 GiB relaxation on a 64 GiB device leaves room for");
  bench::note("dozens of concurrent branch-and-cut node solves.");
}

void whole_relaxations() {
  bench::title("E7-c", "whole LP relaxations: sequential vs streams vs lockstep waves");
  bench::row("  %-7s %-14s %-14s %-14s %-10s %-12s", "K", "sequential", "16-streams",
             "lockstep", "waves", "kernels(seq/lock)");
  Rng rng(403);
  for (int k : {4, 16, 64}) {
    std::vector<std::unique_ptr<lp::StandardForm>> storage;
    std::vector<const lp::StandardForm*> views;
    for (int i = 0; i < k; ++i) {
      lp::LpModel model = problems::dense_lp(10, 15, rng);
      storage.push_back(std::make_unique<lp::StandardForm>(lp::build_standard_form(model)));
      views.push_back(storage.back().get());
    }
    gpu::Device d1, d2, d3;
    const auto seq = lp::solve_batched(views, d1, lp::BatchMode::Sequential);
    const auto str = lp::solve_batched(views, d2, lp::BatchMode::Streams);
    const auto lock = lp::solve_batched(views, d3, lp::BatchMode::Lockstep);
    bench::row("  %-7d %-14s %-14s %-14s %-10ld %llu/%llu", k,
               human_seconds(seq.sim_seconds).c_str(), human_seconds(str.sim_seconds).c_str(),
               human_seconds(lock.sim_seconds).c_str(), lock.waves,
               static_cast<unsigned long long>(seq.kernels),
               static_cast<unsigned long long>(lock.kernels));
  }
  bench::note("the lockstep mode is the paper's 'batch-style processing of linear algebra");
  bench::note("calls': one kernel per operation type per wave instead of 4 per iteration");
  bench::note("per problem — fewer, fatter launches.");
}

void first_order_lockstep() {
  bench::title("E7-d", "lockstep backends on sparse sibling relaxations: simplex vs PDHG");
  bench::row("  %-7s %-14s %-14s %-12s %-12s %-18s", "K", "spx-lockstep", "pdhg-lockstep",
             "spx-waves", "pdhg-waves", "kernels(spx/pdhg)");
  Rng rng(404);
  lp::PdhgOptions popts;
  popts.tol = 1e-4;
  lp::LpModel base = problems::sparse_lp(48, 72, 0.05, rng);
  const lp::StandardForm base_form = lp::build_standard_form(base);
  for (int k : {16, 64, 192}) {
    std::vector<std::unique_ptr<lp::StandardForm>> storage;
    std::vector<const lp::StandardForm*> views;
    for (int i = 0; i < k; ++i) {
      auto form = std::make_unique<lp::StandardForm>(base_form);
      const std::size_t j = rng.index(static_cast<std::size_t>(base.num_cols()));
      if (form->ub[j] > form->lb[j]) {
        form->ub[j] = form->lb[j] + 0.8 * (form->ub[j] - form->lb[j]);
      }
      storage.push_back(std::move(form));
      views.push_back(storage.back().get());
    }
    gpu::Device d1, d2;
    const auto spx = lp::solve_batched(views, d1, lp::BatchMode::Lockstep);
    const lp::BatchedLpReport pdhg = lp::solve_batched_pdhg(views, d2, popts);
    bench::row("  %-7d %-14s %-14s %-12ld %-12ld %llu/%llu", k,
               human_seconds(spx.sim_seconds).c_str(), human_seconds(pdhg.sim_seconds).c_str(),
               spx.waves, pdhg.waves, static_cast<unsigned long long>(spx.kernels),
               static_cast<unsigned long long>(pdhg.kernels));
  }
  bench::note("PDHG runs several times more waves, but each wave is ONE fused sparse");
  bench::note("launch moving K*nnz bytes; a simplex wave is four dense launches moving K*m^2.");
  bench::note("bench_e9_methods E9-d places this trade on the full method-crossover surface.");
}

void BM_mode(benchmark::State& state) {
  Rng rng(402);
  auto mats = make_batch(static_cast<int>(state.range(1)), 24, rng);
  double sim = 0.0;
  for (auto _ : state) {
    switch (state.range(0)) {
      case 0: sim = run_sequential(mats); break;
      case 1: sim = run_streams(mats, 16); break;
      default: sim = run_batched(mats); break;
    }
    benchmark::DoNotOptimize(sim);
  }
  state.counters["sim_problems_per_s"] = static_cast<double>(state.range(1)) / sim;
}
BENCHMARK(BM_mode)->Args({0, 64})->Args({1, 64})->Args({2, 64})->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  memory_ceiling();
  whole_relaxations();
  first_order_lockstep();
  return gpumip::bench::run_benchmarks(argc, argv);
}
