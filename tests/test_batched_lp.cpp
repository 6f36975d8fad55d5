#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "lp/batched_lp.hpp"
#include "lp/op_stats.hpp"
#include "obs/metrics.hpp"
#include "problems/generators.hpp"

namespace gpumip::lp {
namespace {

struct Batch {
  std::vector<std::unique_ptr<StandardForm>> storage;
  std::vector<const StandardForm*> views;
};

Batch make_batch(int count, std::uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  for (int i = 0; i < count; ++i) {
    LpModel model = problems::dense_lp(8 + i % 4, 12 + i % 5, rng);
    batch.storage.push_back(std::make_unique<StandardForm>(build_standard_form(model)));
    batch.views.push_back(batch.storage.back().get());
  }
  return batch;
}

Batch make_sparse_batch(int count, std::uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  for (int i = 0; i < count; ++i) {
    LpModel model = problems::sparse_lp(24 + i % 5, 36 + i % 7, 0.15, rng);
    batch.storage.push_back(std::make_unique<StandardForm>(build_standard_form(model)));
    batch.views.push_back(batch.storage.back().get());
  }
  return batch;
}

/// Members per batch in the bit-identity tests: four per thread the batch
/// may fan out to, so every thread solves several members.
int members_per_thread_batch() {
  return 4 * static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Bitwise equality of two double vectors.
void expect_same_bits(const linalg::Vector& got, const linalg::Vector& expect,
                      const char* what, std::size_t problem) {
  ASSERT_EQ(got.size(), expect.size()) << what << ", problem " << problem;
  EXPECT_EQ(std::memcmp(got.data(), expect.data(), got.size() * sizeof(double)), 0)
      << what << " differs, problem " << problem;
}

/// Exact equality of two results: every number bit for bit, the basis, the
/// iteration count and every LpOpStats field.
void expect_same_result(const LpResult& got, const LpResult& expect, std::size_t problem) {
  EXPECT_EQ(got.status, expect.status) << "problem " << problem;
  EXPECT_EQ(std::memcmp(&got.objective, &expect.objective, sizeof(double)), 0)
      << "objective differs, problem " << problem;
  expect_same_bits(got.x, expect.x, "x", problem);
  expect_same_bits(got.duals, expect.duals, "duals", problem);
  expect_same_bits(got.reduced_costs, expect.reduced_costs, "reduced costs", problem);
  EXPECT_EQ(got.basis, expect.basis) << "problem " << problem;
  EXPECT_EQ(got.iterations, expect.iterations) << "problem " << problem;
  const LpOpStats& a = got.ops;
  const LpOpStats& b = expect.ops;
  const std::array<long, 14> fields_a = {a.m, a.n, a.nnz, a.ftran, a.btran, a.price_full,
                                         a.eta_updates, a.refactor, a.iterations,
                                         a.bound_flips, a.cholesky, a.matvec_n, a.spmv,
                                         a.restarts};
  const std::array<long, 14> fields_b = {b.m, b.n, b.nnz, b.ftran, b.btran, b.price_full,
                                         b.eta_updates, b.refactor, b.iterations,
                                         b.bound_flips, b.cholesky, b.matvec_n, b.spmv,
                                         b.restarts};
  EXPECT_EQ(fields_a, fields_b) << "LpOpStats differ, problem " << problem;
}

/// The solve counters a member solve bumps, read from the process registry.
std::vector<std::uint64_t> solve_counters(const char* method) {
  std::vector<std::uint64_t> values;
  values.push_back(obs::counter(obs::labeled_name("gpumip.lp.solves", {{"method", method}})).value());
  for (const char* name :
       {"gpumip.lp.pdhg.iterations", "gpumip.lp.pdhg.restarts",
        "gpumip.lp.ops.ftran", "gpumip.lp.ops.btran", "gpumip.lp.ops.price_full",
        "gpumip.lp.ops.eta_updates", "gpumip.lp.ops.refactor", "gpumip.lp.ops.iterations",
        "gpumip.lp.ops.bound_flips", "gpumip.lp.ops.cholesky", "gpumip.lp.ops.matvec_n",
        "gpumip.lp.ops.spmv", "gpumip.lp.ops.restarts"}) {
    values.push_back(obs::counter(name).value());
  }
  return values;
}

std::vector<std::uint64_t> counter_deltas(const std::vector<std::uint64_t>& before,
                                          const std::vector<std::uint64_t>& after) {
  std::vector<std::uint64_t> deltas(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) deltas[i] = after[i] - before[i];
  return deltas;
}

/// Sets lb > ub on one variable of a member, which its solve rejects.
void break_bounds(StandardForm& form, int var) {
  form.lb[static_cast<std::size_t>(var)] = 1.0;
  form.ub[static_cast<std::size_t>(var)] = 0.0;
}

/// Runs `call`, which must throw gpumip::Error, and returns its message.
template <class Call>
std::string error_message(const Call& call) {
  try {
    call();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "no gpumip::Error thrown";
  return {};
}

TEST(BatchedLp, AllModesProduceIdenticalResults) {
  Batch batch = make_batch(12, 11);
  std::vector<double> reference;
  for (BatchMode mode : {BatchMode::Sequential, BatchMode::Streams, BatchMode::Lockstep}) {
    gpu::Device device;
    BatchedLpReport report = solve_batched(batch.views, device, mode);
    ASSERT_EQ(report.results.size(), batch.views.size()) << batch_mode_name(mode);
    if (reference.empty()) {
      for (const LpResult& r : report.results) {
        EXPECT_EQ(r.status, LpStatus::Optimal);
        reference.push_back(r.objective);
      }
    } else {
      for (std::size_t i = 0; i < report.results.size(); ++i) {
        EXPECT_NEAR(report.results[i].objective, reference[i], 1e-9)
            << batch_mode_name(mode) << " problem " << i;
      }
    }
    EXPECT_GT(report.sim_seconds, 0.0);
  }
}

TEST(BatchedLp, StreamsOverlapBeatsSequential) {
  Batch batch = make_batch(32, 13);
  gpu::Device d1, d2;
  BatchedLpReport seq = solve_batched(batch.views, d1, BatchMode::Sequential);
  BatchedLpReport str = solve_batched(batch.views, d2, BatchMode::Streams);
  EXPECT_LT(str.sim_seconds, seq.sim_seconds);
  EXPECT_EQ(seq.kernels, str.kernels);  // same work, different schedule
}

TEST(BatchedLp, LockstepUsesFarFewerKernels) {
  Batch batch = make_batch(32, 17);
  gpu::Device d1, d2;
  BatchedLpReport seq = solve_batched(batch.views, d1, BatchMode::Sequential);
  BatchedLpReport lock = solve_batched(batch.views, d2, BatchMode::Lockstep);
  EXPECT_LT(lock.kernels, seq.kernels / 4);
  EXPECT_GT(lock.waves, 0);
  EXPECT_LT(lock.sim_seconds, seq.sim_seconds);
}

TEST(BatchedLp, CapacityIsEnforced) {
  Batch batch = make_batch(8, 19);
  gpu::CostModelConfig tiny;
  tiny.memory_bytes = 4 * 1024;  // cannot hold 8 relaxations
  gpu::Device device(tiny);
  EXPECT_THROW(solve_batched(batch.views, device, BatchMode::Lockstep), DeviceOutOfMemory);
}

TEST(BatchedLp, InputValidation) {
  gpu::Device device;
  EXPECT_THROW(solve_batched({}, device, BatchMode::Sequential), Error);
  std::vector<const StandardForm*> with_null = {nullptr};
  EXPECT_THROW(solve_batched(with_null, device, BatchMode::Sequential), Error);
}

TEST(BatchedLp, ResidencyIsOneAllocationFreedOnReturn) {
  // Each entry point holds its batch in one device allocation of exactly
  // the summed member footprints: the peak equals that sum, a device one
  // byte smaller refuses the batch, and the ledger is empty on return.
  const auto expect_one_exact_allocation = [](const Batch& batch, std::uint64_t footprint,
                                              const auto& solve) {
    gpu::Device device;
    ASSERT_EQ(solve(device).results.size(), batch.views.size());
    EXPECT_EQ(device.stats().peak_allocated_bytes, footprint);
    EXPECT_EQ(device.live_allocations(), 0u);
    EXPECT_NO_THROW(device.audit());
    gpu::CostModelConfig exact;
    exact.memory_bytes = footprint;
    gpu::Device fits(exact);
    EXPECT_NO_THROW((void)solve(fits));
    exact.memory_bytes = footprint - 1;
    gpu::Device short_by_one(exact);
    EXPECT_THROW((void)solve(short_by_one), DeviceOutOfMemory);
    EXPECT_EQ(short_by_one.live_allocations(), 0u);
  };

  Batch dense = make_batch(4, 37);
  std::uint64_t dense_bytes = 0;
  for (const StandardForm* form : dense.views) {
    dense_bytes += dense_lp_device_bytes(form->num_rows, form->num_vars);
  }
  expect_one_exact_allocation(dense, dense_bytes, [&](gpu::Device& device) {
    return solve_batched(dense.views, device, BatchMode::Sequential);
  });

  Batch sparse = make_sparse_batch(6, 47);
  std::uint64_t sparse_bytes = 0;
  for (const StandardForm* form : sparse.views) {
    sparse_bytes += pdhg_lp_device_bytes(form->num_rows, form->num_vars,
                                         static_cast<long>(form->a_rows.nnz()));
  }
  expect_one_exact_allocation(sparse, sparse_bytes, [&](gpu::Device& device) {
    return solve_batched_pdhg(sparse.views, device);
  });
}

TEST(BatchedLp, SingleProblemDegeneratesGracefully) {
  Batch batch = make_batch(1, 29);
  gpu::Device device;
  BatchedLpReport r = solve_batched(batch.views, device, BatchMode::Lockstep);
  EXPECT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].status, LpStatus::Optimal);
}

TEST(BatchedLp, BitIdenticalToSequentialSolves) {
  for (const int count : {members_per_thread_batch(), 1}) {
    Batch batch = make_batch(count, 59);
    gpu::Device device;
    const std::vector<std::uint64_t> before = solve_counters("simplex");
    BatchedLpReport batched = solve_batched(batch.views, device, BatchMode::Lockstep);
    const std::vector<std::uint64_t> batched_deltas =
        counter_deltas(before, solve_counters("simplex"));
    ASSERT_EQ(batched.results.size(), batch.views.size());
    const std::vector<std::uint64_t> before_solo = solve_counters("simplex");
    for (std::size_t i = 0; i < batch.views.size(); ++i) {
      SimplexSolver solo(*batch.views[i]);
      expect_same_result(batched.results[i], solo.solve_default(), i);
    }
    // Members publish the same counters a sequential solve does.
    EXPECT_EQ(batched_deltas, counter_deltas(before_solo, solve_counters("simplex")))
        << "batch of " << count;
  }
}

TEST(BatchedLp, MemberErrorIsRethrownAfterJoin) {
  Batch batch = make_batch(8, 61);
  gpu::Device device;
  break_bounds(*batch.storage[5], 3);
  const std::string one = error_message(
      [&] { (void)solve_batched(batch.views, device, BatchMode::Lockstep); });
  EXPECT_NE(one.find("lb > ub for variable 3"), std::string::npos) << one;
  // Two failing members: the lower index wins, whichever thread ran it.
  break_bounds(*batch.storage[2], 1);
  const std::string two = error_message(
      [&] { (void)solve_batched(batch.views, device, BatchMode::Lockstep); });
  EXPECT_NE(two.find("lb > ub for variable 1"), std::string::npos) << two;
}

// ---------------------------------------------------------------------------
// solve_batched_pdhg — the first-order lockstep path. The suite name joins
// scripts/check.sh gate 4's schedule-fuzzer filter: the device wave schedule
// is perturbed by GPUMIP_SCHEDULE_SEED, and these tests prove the results
// stay bit-identical to sequential PdhgSolver calls regardless.
// ---------------------------------------------------------------------------

TEST(BatchedPdhg, BitIdenticalToSequentialSolves) {
  // Exact equality, not NEAR: each member runs the same host arithmetic in
  // the same order as a sequential solve, whichever thread runs it.
  for (const int count : {members_per_thread_batch(), 1}) {
    Batch batch = make_sparse_batch(count, 41);
    gpu::Device device;
    const std::vector<std::uint64_t> before = solve_counters("pdhg");
    BatchedLpReport batched = solve_batched_pdhg(batch.views, device);
    const std::vector<std::uint64_t> batched_deltas =
        counter_deltas(before, solve_counters("pdhg"));
    ASSERT_EQ(batched.results.size(), batch.views.size());
    const std::vector<std::uint64_t> before_solo = solve_counters("pdhg");
    for (std::size_t i = 0; i < batch.views.size(); ++i) {
      PdhgSolver solo(*batch.views[i]);
      expect_same_result(batched.results[i], solo.solve_default(), i);
    }
    EXPECT_EQ(batched_deltas, counter_deltas(before_solo, solve_counters("pdhg")))
        << "batch of " << count;
  }
}

TEST(BatchedPdhg, MemberErrorIsRethrownAfterJoin) {
  Batch batch = make_sparse_batch(8, 67);
  gpu::Device device;
  break_bounds(*batch.storage[6], 4);
  const std::string one =
      error_message([&] { (void)solve_batched_pdhg(batch.views, device); });
  EXPECT_NE(one.find("lb > ub for variable 4"), std::string::npos) << one;
  break_bounds(*batch.storage[1], 2);
  const std::string two =
      error_message([&] { (void)solve_batched_pdhg(batch.views, device); });
  EXPECT_NE(two.find("lb > ub for variable 2"), std::string::npos) << two;
}

TEST(BatchedPdhg, WavesTrackTheSlowestInstance) {
  Batch batch = make_sparse_batch(8, 43);
  gpu::Device device;
  BatchedLpReport r = solve_batched_pdhg(batch.views, device);
  long slowest = 0;
  for (const LpResult& res : r.results) {
    EXPECT_EQ(res.status, LpStatus::Optimal);
    slowest = std::max(slowest, res.ops.iterations);
  }
  // One wave per lockstep iteration until the last straggler converges;
  // each wave is one fused launch (plus periodic batched KKT checks), so
  // the kernel count sits just above the wave count — nowhere near the
  // 4-kernels-per-wave a simplex lockstep pays.
  EXPECT_EQ(r.waves, slowest);
  EXPECT_GE(r.kernels, static_cast<std::uint64_t>(r.waves));
  EXPECT_LT(r.kernels, static_cast<std::uint64_t>(2 * r.waves));
  EXPECT_GT(r.sim_seconds, 0.0);
}

TEST(BatchedPdhg, CapacityIsEnforced) {
  Batch batch = make_sparse_batch(8, 53);
  gpu::CostModelConfig tiny;
  tiny.memory_bytes = 4 * 1024;  // cannot hold 8 CSR images + iterates
  gpu::Device device(tiny);
  EXPECT_THROW(solve_batched_pdhg(batch.views, device), DeviceOutOfMemory);
}

TEST(BatchedPdhg, InputValidation) {
  gpu::Device device;
  EXPECT_THROW(solve_batched_pdhg({}, device), Error);
  std::vector<const StandardForm*> with_null = {nullptr};
  EXPECT_THROW(solve_batched_pdhg(with_null, device), Error);
}

}  // namespace
}  // namespace gpumip::lp
