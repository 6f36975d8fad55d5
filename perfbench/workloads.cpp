#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "checker.hpp"
#include "lp/batched_lp.hpp"
#include "parallel/strategies.hpp"
#include "parallel/supervisor.hpp"
#include "problems/generators.hpp"
#include "tracer.hpp"

namespace perfbench {

using namespace gpumip;

namespace {

// ---- workload shapes (README.md, "Workloads") ----
constexpr int kBnbCorpus = 120;        // random_mip 16x28, bound 4
constexpr int kUcCorpus = 40;          // unit_commitment 4 generators x 12 periods
constexpr long kUcNodeCap = 1000;      // reaching it fails the item
// A dense lockstep batch takes ~10 ms of host time and a PDHG batch ~90 ms,
// so the simplex pool is the larger one: both get several passes per run.
constexpr int kSimplexBatchCorpus = 48;
constexpr int kPdhgBatchCorpus = 36;
constexpr int kDenseRows = 16, kDenseCols = 24, kDenseK = 64;
constexpr int kSparseRows = 48, kSparseCols = 72, kSparseK = 192;
constexpr double kSparseDensity = 0.05;
constexpr double kPdhgTol = 1e-4;
constexpr int kSupervisedCorpus = 40;  // random_mip 17x30, bound 4
constexpr int kWorkers = 3;
constexpr long kWorkerBudget = 15;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Generator seed of corpus member i (1..N), independent of --seed. These
/// corpora have no member whose search runs away: with other generator
/// seeds a single 16x28 random MIP can take 32k nodes (9 s), which would
/// dominate every metric of the pass.
std::uint64_t corpus_seed(int i) { return static_cast<std::uint64_t>(i) + 1; }

/// The --seed-driven stream for corpus member i.
std::uint64_t member_seed(std::uint64_t seed, int i) {
  return splitmix(splitmix(seed) ^ static_cast<std::uint64_t>(i));
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) h = (h ^ c[k]) * 0x100000001b3ull;
  }
  template <typename T>
  void value(const T& v) { bytes(&v, sizeof(v)); }
  template <typename T>
  void range(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
};

void hash_model(Fnv& fnv, const mip::MipModel& model) {
  const lp::LpModel& lp = model.lp();
  fnv.value(static_cast<int>(lp.sense()));
  for (int j = 0; j < lp.num_cols(); ++j) {
    fnv.value(lp.col(j).obj);
    fnv.value(lp.col(j).lb);
    fnv.value(lp.col(j).ub);
    fnv.value(model.is_integer(j));
  }
  for (int i = 0; i < lp.num_rows(); ++i) {
    fnv.value(lp.row(i).lb);
    fnv.value(lp.row(i).ub);
  }
  for (const sparse::Triplet& t : lp.entries()) {
    fnv.value(t.row);
    fnv.value(t.col);
    fnv.value(t.value);
  }
}

void hash_form(Fnv& fnv, const lp::StandardForm& form) {
  fnv.range(form.a_rows.row_start);
  fnv.range(form.a_rows.col_index);
  fnv.range(form.a_rows.values);
  fnv.range(form.b);
  fnv.range(form.c);
  fnv.range(form.lb);
  fnv.range(form.ub);
}

/// The same MIP with rows and columns relabelled by `rng`.
mip::MipModel permuted(const mip::MipModel& in, Rng& rng) {
  const lp::LpModel& lp = in.lp();
  const std::vector<int> col_of = rng.permutation(lp.num_cols());  // new -> old
  const std::vector<int> row_of = rng.permutation(lp.num_rows());
  std::vector<int> new_col(col_of.size()), new_row(row_of.size());
  for (std::size_t k = 0; k < col_of.size(); ++k) new_col[static_cast<std::size_t>(col_of[k])] = static_cast<int>(k);
  for (std::size_t k = 0; k < row_of.size(); ++k) new_row[static_cast<std::size_t>(row_of[k])] = static_cast<int>(k);

  mip::MipModel out;
  out.lp().set_sense(lp.sense());
  for (int old : col_of) {
    const lp::ColumnDef& c = lp.col(old);
    if (in.is_integer(old)) {
      out.add_int_col(c.obj, c.lb, c.ub, c.name);
    } else {
      out.add_col(c.obj, c.lb, c.ub, c.name);
    }
  }
  for (int old : row_of) out.lp().add_row(lp.row(old).lb, lp.row(old).ub, lp.row(old).name);
  for (const sparse::Triplet& t : lp.entries()) {
    out.lp().set_coef(new_row[static_cast<std::size_t>(t.row)],
                      new_col[static_cast<std::size_t>(t.col)], t.value);
  }
  return out;
}

mip::MipOptions mip_options(Kind kind) {
  mip::MipOptions options;
  if (kind == Kind::UcIpm) options.max_nodes = kUcNodeCap;
  if (kind == Kind::Supervised) options.enable_cuts = false;
  return options;
}

parallel::SupervisorOptions supervisor_options() {
  parallel::SupervisorOptions options;
  options.workers = kWorkers;
  options.worker_node_budget = kWorkerBudget;
  options.mip = mip_options(Kind::Supervised);
  return options;
}

lp::PdhgOptions pdhg_options() {
  lp::PdhgOptions options;
  options.tol = kPdhgTol;
  return options;
}

mip::MipModel corpus_mip(Kind kind, int i) {
  Rng rng(corpus_seed(i));
  switch (kind) {
    case Kind::BnbTree: {
      problems::RandomMipConfig config;
      config.rows = 16;
      config.cols = 28;
      config.bound = 4.0;
      return problems::random_mip(config, rng);
    }
    case Kind::UcIpm:
      return problems::unit_commitment(4, 12, rng);
    case Kind::Supervised: {
      problems::RandomMipConfig config;
      config.rows = 17;
      config.cols = 30;
      config.bound = 4.0;
      return problems::random_mip(config, rng);
    }
    case Kind::LpBatchSimplex:
    case Kind::LpBatchPdhg:
      break;
  }
  throw std::logic_error("corpus_mip: not a MIP workload");
}

/// Sibling relaxations of one base LP, each with one tightened upper bound
/// (a branch-and-bound child), as in bench_e7 E7-d.
std::vector<lp::StandardForm> siblings(const lp::StandardForm& base, int k, Rng& rng) {
  std::vector<lp::StandardForm> forms;
  forms.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    lp::StandardForm form = base;
    const std::size_t j = rng.index(static_cast<std::size_t>(base.num_struct));
    if (form.ub[j] > form.lb[j]) form.ub[j] = form.lb[j] + 0.8 * (form.ub[j] - form.lb[j]);
    forms.push_back(std::move(form));
  }
  return forms;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

Kind parse_kind(const std::string& name) {
  for (Kind k : {Kind::BnbTree, Kind::UcIpm, Kind::LpBatchSimplex, Kind::LpBatchPdhg,
                 Kind::Supervised}) {
    if (name == kind_name(k)) return k;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::BnbTree: return "bnb_tree";
    case Kind::UcIpm: return "uc_ipm";
    case Kind::LpBatchSimplex: return "lp_batch_simplex";
    case Kind::LpBatchPdhg: return "lp_batch_pdhg";
    case Kind::Supervised: return "supervised";
  }
  return "?";
}

Pool make_pool(Kind kind, std::uint64_t seed) {
  Pool pool;
  pool.kind = kind;
  Fnv fnv;
  const double t0 = now_s();
  if (kind == Kind::LpBatchSimplex || kind == Kind::LpBatchPdhg) {
    const bool pdhg = kind == Kind::LpBatchPdhg;
    const int corpus = pdhg ? kPdhgBatchCorpus : kSimplexBatchCorpus;
    for (int i = 0; i < corpus; ++i) {
      Rng base_rng(corpus_seed(i));
      Rng rng(member_seed(seed, i));
      Item item;
      const lp::LpModel base =
          pdhg ? problems::sparse_lp(kSparseRows, kSparseCols, kSparseDensity, base_rng)
               : problems::dense_lp(kDenseRows, kDenseCols, base_rng);
      item.forms = siblings(lp::build_standard_form(base), pdhg ? kSparseK : kDenseK, rng);
      if (pdhg) item.sampled = static_cast<int>(rng.index(item.forms.size()));
      for (const lp::StandardForm& form : item.forms) hash_form(fnv, form);
      pool.items.push_back(std::move(item));
    }
    pool.gen_s = now_s() - t0;
    if (pdhg) {
      for (Item& item : pool.items) {
        const lp::StandardForm& form = item.forms[static_cast<std::size_t>(item.sampled)];
        lp::SimplexSolver reference(form);
        const lp::LpResult r = reference.solve_default();
        if (r.status != lp::LpStatus::Optimal) throw std::runtime_error("lp_batch_pdhg: reference LP not optimal");
        item.reference = r.objective;
      }
    }
  } else {
    const int corpus = kind == Kind::BnbTree ? kBnbCorpus
                       : kind == Kind::UcIpm ? kUcCorpus
                                             : kSupervisedCorpus;
    std::vector<mip::MipModel> originals;
    for (int i = 0; i < corpus; ++i) {
      Rng rng(member_seed(seed, i));
      Item item;
      originals.push_back(corpus_mip(kind, i));
      item.model = permuted(originals.back(), rng);
      hash_model(fnv, item.model);
      pool.items.push_back(std::move(item));
    }
    pool.gen_s = now_s() - t0;
    if (kind == Kind::Supervised) {
      // The optimum does not depend on the labelling, so the reference
      // solves the unpermuted member: the same search for every --seed,
      // which keeps setup_s from varying with the seed's tree sizes.
      for (std::size_t i = 0; i < pool.items.size(); ++i) {
        mip::BnbSolver solver(originals[i], mip_options(kind));
        const mip::MipResult r = solver.solve();
        if (r.status != mip::MipStatus::Optimal) throw std::runtime_error("supervised: reference MIP not optimal");
        pool.items[i].reference = r.objective;
      }
    }
  }
  pool.input_hash = fnv.h;
  return pool;
}

namespace {

/// A tracer span for the rest of the scope; nothing when untraced.
struct Span {
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

Outcome run_strategy_item(const Item& item, Kind kind, Tracer* tracer, bool corrupt) {
  Outcome out;
  parallel::StrategyConfig config;
  config.mip = mip_options(kind);
  if (tracer != nullptr) {
    // The traced run also solves the model on its own so the tree search
    // (mip.solve) and its per-node trace are visible apart from the replay.
    mip::BnbSolver solver(item.model, config.mip);
    {
      Span span(tracer, "mip.solve");
      (void)solver.solve();
    }
    for (const mip::NodeTrace& node : solver.trace()) {
      if (node.lp_status == lp::LpStatus::NumericalTrouble) out.layer.lp_trouble += 1.0;
    }
  }
  parallel::StrategyReport report;
  {
    Span span(tracer, "parallel.run_strategy");
    const double t0 = now_s();
    report = parallel::run_strategy(parallel::Strategy::S2_CpuOrchestrated, item.model, config);
    out.call_s = now_s() - t0;
  }
  Span span(tracer, "bench.check");
  out.sim_s = report.sim_seconds;
  out.lps = report.result.stats.nodes_evaluated;
  if (corrupt && !report.result.x.empty()) report.result.x[0] += 0.5;
  out.why = report.completed ? check_mip(item.model, report.result, config.mip.int_tol)
                             : "strategy did not complete: " + report.failure;
  const mip::MipStats& stats = report.result.stats;
  out.layer.nodes = static_cast<double>(stats.nodes_evaluated);
  out.layer.hot = static_cast<double>(stats.hot_nodes);
  out.layer.cuts = static_cast<double>(stats.cuts_added);
  out.layer.node_limit = report.result.status == mip::MipStatus::NodeLimit ? 1.0 : 0.0;
  out.layer.simplex_iterations = static_cast<double>(stats.lp_iterations);
  out.layer.refactor = static_cast<double>(stats.total_ops.refactor);
  out.layer.cholesky = static_cast<double>(stats.total_ops.cholesky);
  out.layer.h2d_bytes = static_cast<double>(report.bytes_h2d);
  out.layer.d2h_bytes = static_cast<double>(report.bytes_d2h);
  out.layer.transfers = static_cast<double>(report.transfers);
  out.layer.device_s = report.device_seconds;
  out.layer.peak_bytes = static_cast<double>(report.device_peak_bytes);
  out.layer.host_sim_s = report.host_seconds;
  return out;
}

Outcome run_batch_item(const Item& item, bool pdhg, Tracer* tracer, bool corrupt) {
  Outcome out;
  std::vector<const lp::StandardForm*> views;
  views.reserve(item.forms.size());
  for (const lp::StandardForm& form : item.forms) views.push_back(&form);
  gpu::Device device;
  lp::BatchedLpReport report;
  if (pdhg) {
    Span span(tracer, "lp.batch.pdhg");
    const double t0 = now_s();
    report = lp::solve_batched_pdhg(views, device, pdhg_options());
    out.call_s = now_s() - t0;
  } else {
    Span span(tracer, "lp.batch.simplex");
    const double t0 = now_s();
    report = lp::solve_batched(views, device, lp::BatchMode::Lockstep);
    out.call_s = now_s() - t0;
  }
  Span span(tracer, "bench.check");
  out.sim_s = report.sim_seconds;
  out.lps = static_cast<long>(views.size());
  out.layer.batch_waves = static_cast<double>(report.waves);
  out.layer.batch_kernels = static_cast<double>(report.kernels);
  if (report.results.size() != views.size()) {
    out.why = "batch returned the wrong number of results";
    return out;
  }
  if (corrupt) report.results[0].x[0] += 1.0;
  const double feas_tol = pdhg ? kPdhgTol : 1e-6;
  for (std::size_t k = 0; k < views.size() && out.why.empty(); ++k) {
    out.why = check_lp(*views[k], report.results[k], feas_tol);
    if (!pdhg) out.layer.simplex_iterations += static_cast<double>(report.results[k].iterations);
    out.layer.refactor += static_cast<double>(report.results[k].ops.refactor);
  }
  if (out.why.empty() && pdhg &&
      !close_to(report.results[static_cast<std::size_t>(item.sampled)].objective, item.reference,
                kPdhgTol)) {
    out.why = "PDHG objective differs from the simplex reference";
  }
  return out;
}

Outcome run_supervised_item(const Item& item, Tracer* tracer, bool corrupt) {
  Outcome out;
  const parallel::SupervisorOptions options = supervisor_options();
  parallel::SupervisorResult result;
  {
    Span span(tracer, "parallel.solve_supervised");
    const double t0 = now_s();
    result = parallel::solve_supervised(item.model, options);
    out.call_s = now_s() - t0;
  }
  Span span(tracer, "bench.check");
  out.sim_s = result.makespan;
  out.lps = result.result.stats.nodes_evaluated;
  if (corrupt && !result.result.x.empty()) result.result.x[0] += 0.5;
  out.why = check_mip(item.model, result.result, options.mip.int_tol);
  if (out.why.empty() && !close_to(result.result.objective, item.reference, 1e-6)) {
    out.why = "optimum differs from the sequential BnbSolver reference";
  }
  LayerCounts& l = out.layer;
  // The supervisor's MipResult carries only the workers' node total.
  l.nodes = static_cast<double>(result.result.stats.nodes_evaluated);
  if (result.makespan > 0.0) {
    double busy = 0.0;
    for (double b : result.worker_busy) busy += b;
    const double workers = static_cast<double>(result.worker_busy.size());
    l.ramp_up_frac = result.ramp_up_seconds / result.makespan;
    l.busy_frac = workers > 0 ? busy / (workers * result.makespan) : 0.0;
    if (busy > 0.0) {
      const double mean = busy / workers;
      double var = 0.0;
      for (double b : result.worker_busy) var += (b - mean) * (b - mean);
      l.balance_cv = std::sqrt(var / workers) / mean;
    }
  }
  l.dispatched = static_cast<double>(result.subproblems_dispatched);
  l.msgs = static_cast<double>(result.network.messages);
  l.bytes = static_cast<double>(result.network.bytes);
  return out;
}

}  // namespace

void LayerCounts::add(const LayerCounts& o) {
  nodes += o.nodes;
  hot += o.hot;
  cuts += o.cuts;
  lp_trouble += o.lp_trouble;
  node_limit += o.node_limit;
  simplex_iterations += o.simplex_iterations;
  refactor += o.refactor;
  cholesky += o.cholesky;
  h2d_bytes += o.h2d_bytes;
  d2h_bytes += o.d2h_bytes;
  transfers += o.transfers;
  device_s += o.device_s;
  peak_bytes += o.peak_bytes;
  host_sim_s += o.host_sim_s;
  batch_waves += o.batch_waves;
  batch_kernels += o.batch_kernels;
  ramp_up_frac += o.ramp_up_frac;
  busy_frac += o.busy_frac;
  balance_cv += o.balance_cv;
  dispatched += o.dispatched;
  msgs += o.msgs;
  bytes += o.bytes;
}

Outcome run_item(const Pool& pool, std::size_t i, Tracer* tracer, bool corrupt) {
  const Item& item = pool.items.at(i);
  Outcome out;
  switch (pool.kind) {
    case Kind::BnbTree:
    case Kind::UcIpm: out = run_strategy_item(item, pool.kind, tracer, corrupt); break;
    case Kind::LpBatchSimplex:
    case Kind::LpBatchPdhg:
      out = run_batch_item(item, pool.kind == Kind::LpBatchPdhg, tracer, corrupt);
      break;
    case Kind::Supervised: out = run_supervised_item(item, tracer, corrupt); break;
  }
  return out;
}

}  // namespace perfbench
