// The benchmark's workloads: seeded item pools and the call into the
// program that runs one item.
//
// Every workload draws its instances from a fixed corpus generated through
// problems::* (corpus member i always comes from the same generator seed),
// and --seed permutes each member's rows and columns (MIP workloads) or
// picks each batch's tightened sibling bounds (lp_batch_*). A permuted MIP is
// the same problem under another labelling, so different seeds exercise
// different search trees over a workload of fixed difficulty; drawing fresh
// instances per seed instead makes the pool's cost swing by ±30% between
// seeds (branch-and-bound tree sizes are heavy-tailed), which would hide
// any change to the program. See README.md, "Workloads".
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "lp/standard_form.hpp"
#include "mip/model.hpp"

namespace perfbench {

/// The two batched-LP paths are separate workloads: a PDHG batch costs
/// about ten dense lockstep batches, so in one mixed pool the PDHG items
/// alone would set the percentiles.
enum class Kind { BnbTree, UcIpm, LpBatchSimplex, LpBatchPdhg, Supervised };

/// Seconds on the steady clock.
double now_s();

/// Parses a workload name; throws std::invalid_argument on an unknown one.
Kind parse_kind(const std::string& name);
const char* kind_name(Kind kind) noexcept;

/// One unit of work: a MIP solve, or one batch of sibling LPs.
struct Item {
  gpumip::mip::MipModel model;  ///< MIP workloads
  /// Supervised: optimum of a sequential BnbSolver run on the unpermuted
  /// member, made during set-up.
  /// lp_batch_pdhg: simplex objective of the sampled member.
  double reference = std::numeric_limits<double>::quiet_NaN();
  std::vector<gpumip::lp::StandardForm> forms; ///< lp_batch_*: the K siblings
  int sampled = -1;  ///< lp_batch_pdhg: member re-solved by simplex in setup
};

struct Pool {
  Kind kind = Kind::BnbTree;
  std::vector<Item> items;
  std::uint64_t input_hash = 0;  ///< FNV-1a over every generated model/form
  double gen_s = 0.0;            ///< share of setup spent in problems::* + permutation
};

/// Builds the pool for `seed`: generation, standard forms, reference optima.
Pool make_pool(Kind kind, std::uint64_t seed);

/// Per-layer counters of one item, filled by the workload from the
/// program's own reports (StrategyReport, MipStats, BatchedLpReport,
/// SupervisorResult). Zero where the layer is not used.
struct LayerCounts {
  double nodes = 0, hot = 0, cuts = 0, lp_trouble = 0, node_limit = 0;
  double simplex_iterations = 0, refactor = 0, cholesky = 0;
  double h2d_bytes = 0, d2h_bytes = 0, transfers = 0, device_s = 0, peak_bytes = 0;
  double host_sim_s = 0;
  double batch_waves = 0, batch_kernels = 0;
  double ramp_up_frac = 0, busy_frac = 0, balance_cv = 0, dispatched = 0;
  double msgs = 0, bytes = 0;

  void add(const LayerCounts& other);
};

/// Result of running one item, plus the output check's verdict.
struct Outcome {
  double call_s = 0.0; ///< host wall seconds of the program call alone
  double sim_s = 0.0;  ///< simulated platform seconds of this item
  long lps = 0;        ///< LP relaxations solved (node LPs, or K per batch)
  std::string why;     ///< first failed check; empty when the output passed
  LayerCounts layer;
};

class Tracer;

/// Runs item `i` of `pool`, checks its output, and returns the outcome.
/// `tracer` (nullable) brackets each call into the program with a span.
/// `corrupt` perturbs the returned solution before the check (fault drill).
Outcome run_item(const Pool& pool, std::size_t i, Tracer* tracer, bool corrupt);

}  // namespace perfbench
