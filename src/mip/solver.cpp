#include "mip/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "check/invariants.hpp"
#include "gpu/arena.hpp"
#include "gpu/device.hpp"
#include "lp/op_stats.hpp"
#include "mip/branching.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"

namespace gpumip::mip {

namespace {

/// Relative optimality gap at which the search stops.
constexpr double kGapTol = 1e-9;
/// Root cut-and-branch rounds.
constexpr int kCutRounds = 3;
/// Slack allowed between a resumed node's bounds and the model's: the one
/// ConsistentSnapshot::deserialize allows between a node's lb and ub.
constexpr double kBoundSlack = 1e-9;
/// Feasibility tolerance of a resumed incumbent, relative to 1 + |bound|.
constexpr double kFeasTol = 1e-6;

/// True when v lies in [lb, ub] within kFeasTol relative to each bound.
bool within(double v, double lb, double ub) {
  return v >= lb - kFeasTol * (1.0 + std::fabs(lb)) && v <= ub + kFeasTol * (1.0 + std::fabs(ub));
}

/// m x m buffers of the B⁻¹ store. Under best-first the frontier outgrows
/// any small store, so eviction decides which children keep their inverse.
constexpr int kInverseSlots = 64;

/// Parents' final B⁻¹ for their children to inherit (paper C3). A slot holds
/// one branched parent's inverse, shared by its two children, and is free
/// again once neither child is active. When every slot is busy, the slot
/// whose children have the worst bound (best-first pops them last) is
/// evicted: its children refactorize their warm basis instead.
class InverseStore {
 public:
  /// The parent inverse `node` inherits, or nullptr when it has none.
  const linalg::Matrix* find(const BnbNode& node) const {
    if (node.inverse_slot < 0) return nullptr;
    const Slot& slot = slots_[static_cast<std::size_t>(node.inverse_slot)];
    return slot.owner == node.parent ? &slot.binv : nullptr;
  }

  /// Keeps a copy of `binv`, the final inverse of node `owner`, for the
  /// children about to be pushed with bound `bound`; returns their slot.
  /// The copy goes into the slot's own buffer, so a run allocates at most
  /// kInverseSlots of them.
  int keep(const NodePool& pool, int owner, double bound, const linalg::Matrix& binv) {
    const int s = acquire(pool);
    Slot& slot = slots_[static_cast<std::size_t>(s)];
    slot.owner = owner;
    slot.bound = bound;
    slot.children = {-1, -1};
    slot.binv = binv;
    return s;
  }

  /// Records a child pushed with slot `s` (at most two per slot).
  void add_child(int s, int child) {
    Slot& slot = slots_[static_cast<std::size_t>(s)];
    slot.children[slot.children[0] < 0 ? 0 : 1] = child;
  }

 private:
  struct Slot {
    linalg::Matrix binv;
    int owner = -1;  ///< node whose final inverse `binv` is
    std::array<int, 2> children{-1, -1};
    double bound = 0.0;  ///< the children's bound (min form)
  };

  int acquire(const NodePool& pool) {
    if (slots_.size() < static_cast<std::size_t>(kInverseSlots)) {
      slots_.emplace_back();
      return static_cast<int>(slots_.size()) - 1;
    }
    // Reuse the first slot none of whose children is still active.
    std::size_t worst = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      const Slot& slot = slots_[s];
      const bool busy = std::any_of(slot.children.begin(), slot.children.end(), [&](int c) {
        return c >= 0 && pool.node(c).state == NodeState::Active;
      });
      if (!busy) return static_cast<int>(s);
      if (slot.bound > slots_[worst].bound) worst = s;
    }
    return static_cast<int>(worst);
  }

  std::vector<Slot> slots_;
};

}  // namespace

const char* mip_status_name(MipStatus status) noexcept {
  switch (status) {
    case MipStatus::Optimal: return "Optimal";
    case MipStatus::Infeasible: return "Infeasible";
    case MipStatus::Unbounded: return "Unbounded";
    case MipStatus::NodeLimit: return "NodeLimit";
  }
  return "Unknown";
}

double MipResult::gap() const {
  if (!has_solution) return 1e300;
  const double denom = 1.0 + std::fabs(objective);
  return std::fabs(objective - bound) / denom;
}

BnbSolver::BnbSolver(const MipModel& model, MipOptions options)
    : model_(model), options_(std::move(options)) {
  model_.validate();
}

BnbSolver::~BnbSolver() = default;

const NodePool& BnbSolver::pool() const {
  check_arg(pool_ != nullptr, "pool() before solve()");
  return *pool_;
}

void BnbSolver::root_cut_loop() {
  // Cut-and-branch: strengthen the root formulation, then branch on the
  // fixed matrix (the per-node cut round-trip costs are studied separately
  // in experiment E4).
  CutPool pool;
  for (int round = 0; round < kCutRounds; ++round) {
    // Each round is a traced span: its duration IS the device→host→device
    // round-trip latency the paper's C4 tension is about (the trace analyzer
    // aggregates these into the cut-latency report).
    GPUMIP_TRACE_SCOPE("gpumip.mip.cuts.round", round);
    rebuild_form();
    lp::LpResult root = lp_solver_->solve_default();
    stats_.total_ops.add(root.ops);
    stats_.lp_iterations += root.iterations;
    if (root.status != lp::LpStatus::Optimal || model_.is_integral(root.x, options_.int_tol)) {
      return;
    }

    std::vector<Cut> cuts = gomory_cuts(model_, *form_, root, options_.cuts);
    std::vector<Cut> covers = cover_cuts(model_, root.x, options_.cuts);
    cuts.insert(cuts.end(), covers.begin(), covers.end());
    int added = 0;
    std::uint64_t cut_payload = 0;  // bytes a real GPU solver would upload
    for (const Cut& cut : cuts) {
      if (!pool.add(cut)) continue;
      model_.lp().add_row_range(cut.terms, cut.lb, cut.ub, "cut");
      ++added;
      cut_payload += cut.terms.size() * (sizeof(int) + sizeof(double)) + 2 * sizeof(double);
    }
    if (added == 0) {
      return;
    }
    stats_.cuts_added += added;
    stats_.cut_rounds_used = round + 1;
    // Paper C4: one separation round = download the relaxation solution,
    // upload the surviving cut rows.
    GPUMIP_OBS_COUNT("gpumip.mip.cuts.roundtrips");
    GPUMIP_OBS_ADD("gpumip.mip.cuts.generated", static_cast<std::uint64_t>(added));
    GPUMIP_OBS_ADD("gpumip.mip.cuts.bytes_d2h",
                   static_cast<std::uint64_t>(root.x.size() * sizeof(double)));
    GPUMIP_OBS_ADD("gpumip.mip.cuts.bytes_h2d", cut_payload);
  }
  // Rebuild once more so the form includes the last round's cuts.
  rebuild_form();
}

void BnbSolver::rebuild_form() {
  form_ = std::make_unique<lp::StandardForm>(lp::build_standard_form(model_.lp()));
  lp_solver_ = std::make_unique<lp::SimplexSolver>(*form_, options_.lp);
  rows_ = model_.lp().matrix();
}

MipResult BnbSolver::solve() { return run(nullptr); }

MipResult BnbSolver::solve_from(const ConsistentSnapshot& snapshot) { return run(&snapshot); }

ConsistentSnapshot BnbSolver::capture_snapshot() const {
  check_arg(pool_ != nullptr, "capture_snapshot before solve()");
  ConsistentSnapshot snap;
  snap.incumbent_objective = incumbent_obj_;
  snap.incumbent_x = incumbent_x_;
  snap.nodes_solved_so_far = stats_.nodes_evaluated;
  for (int id : pool_->active_ids()) {
    const BnbNode& n = pool_->node(id);
    snap.frontier.push_back({n.lb, n.ub, n.bound, n.depth});
    // Only a fully structural basis can warm-start (try_warm_start rejects
    // artificials), so any other one is not worth carrying.
    if (std::all_of(n.warm_basis.basic.begin(), n.warm_basis.basic.end(),
                    [&](int v) { return v < form_->num_vars; })) {
      snap.frontier.back().basis = n.warm_basis;
    }
  }
  GPUMIP_VALIDATE(check::check_snapshot(snap, form_.get()));
  return snap;
}

MipResult BnbSolver::run(const ConsistentSnapshot* snapshot) {
  GPUMIP_OBS_SPAN("gpumip.mip.solve");
  MipResult result;
  trace_.clear();
  stats_ = MipStats{};
  incumbent_obj_ = options_.initial_cutoff;  // external bound, no solution yet
  incumbent_x_.clear();

  // The form and its LP solvers are built once and kept across solve_from
  // calls (a supervised worker resumes every subproblem on one solver);
  // root cuts rebuild them.
  const bool new_form = form_ == nullptr || (options_.enable_cuts && snapshot == nullptr);
  if (options_.enable_cuts && snapshot == nullptr) {
    root_cut_loop();
  }
  if (form_ == nullptr) rebuild_form();
  if (new_form) {
    // The alternative relaxation backends work on the same (cut-strengthened)
    // form. Root cut separation itself stays on the simplex path: the GMI
    // separator needs a basis, which the basis-free methods cannot supply.
    ipm_solver_ = std::make_unique<lp::InteriorPointSolver>(*form_, options_.ipm);
    pdhg_solver_ = std::make_unique<lp::PdhgSolver>(*form_, options_.pdhg);
  }
  pool_ = std::make_unique<NodePool>(options_.node_selection);

  if (snapshot != nullptr) {
    check_resumable(model_, *form_, *snapshot, options_.int_tol);
    if (snapshot->has_incumbent()) {
      incumbent_obj_ = snapshot->incumbent_objective;
      incumbent_x_ = snapshot->incumbent_x;
    }
    for (const SnapshotNode& sn : snapshot->frontier) {
      BnbNode node;
      node.parent = -1;
      node.depth = sn.depth;
      node.bound = sn.bound;
      node.lb = sn.lb;
      node.ub = sn.ub;
      node.warm_basis = sn.basis;  // check_resumable proved it fits the form
      pool_->push(std::move(node));
    }
  } else {
    BnbNode root;
    root.parent = -1;
    root.depth = 0;
    root.bound = -1e300;
    root.lb = form_->lb;
    root.ub = form_->ub;
    pool_->push(std::move(root));
  }

  auto try_incumbent = [&](double obj, std::span<const double> x_struct) {
    if (obj < incumbent_obj_ - 1e-12) {
      incumbent_obj_ = obj;
      incumbent_x_.assign(x_struct.begin(), x_struct.end());
      pool_->prune_worse_than(incumbent_obj_ - 1e-9);
      GPUMIP_OBS_COUNT("gpumip.mip.incumbent.updates");
      return true;
    }
    return false;
  };

  int last_evaluated = -1;
  bool hit_node_limit = false;
  InverseStore inverses;

  long last_snapshot_at = 0;
  while (!pool_->active_empty()) {
    if (stats_.nodes_evaluated >= options_.max_nodes) {
      hit_node_limit = true;
      break;
    }
    // Consistent snapshot point: between node evaluations the active set is
    // exactly the frontier — no node is in flight (paper section 2.1). It
    // must be taken BEFORE popping: a popped-but-unbranched node would be
    // lost, which is precisely the in-flight hazard the paper describes.
    if (options_.snapshot_interval > 0 && options_.on_snapshot &&
        stats_.nodes_evaluated - last_snapshot_at >= options_.snapshot_interval) {
      last_snapshot_at = stats_.nodes_evaluated;
      GPUMIP_VALIDATE(check::check_tree(*pool_));
      options_.on_snapshot(capture_snapshot());
    }
    // Gap-based stop.
    if (incumbent_obj_ < 1e299) {
      const double best_bound = pool_->best_active_bound();
      if ((incumbent_obj_ - best_bound) / (1.0 + std::fabs(incumbent_obj_)) <= kGapTol) {
        pool_->prune_worse_than(-1e300 + 1.0);  // everything left is within gap
        break;
      }
    }
    const int id = pool_->pop(last_evaluated, incumbent_obj_);
    if (id < 0) break;
    BnbNode& node = pool_->node(id);

    // Bound-based prune without an LP solve.
    if (node.bound >= incumbent_obj_ - 1e-9) {
      pool_->set_state(id, NodeState::PrunedLeaf);
      GPUMIP_TRACE_INSTANT("gpumip.mip.node.pruned", id);
      continue;
    }

    // Evaluate: the three-way method policy of docs/METHODS.md picks the
    // relaxation backend per node (options_.lp_method forces one).
    lp::MethodContext method_ctx;
    method_ctx.warm_basis = !node.warm_basis.empty();
    method_ctx.warm_iterates = !node.warm_x.empty() || !node.warm_y.empty();
    method_ctx.batch_size = 1;
    method_ctx.tol = options_.pdhg.tol;
    method_ctx.forced = options_.lp_method;
    const lp::LpMethod method = lp::choose_method(form_->a_rows, method_ctx);
    // Device-residency modeling (ROADMAP item 4): charge this node's
    // relaxation footprint before solving. With an arena the reset+allot
    // pair reuses the warm slab (zero Device::alloc calls in steady
    // state); without one every node pays a real alloc/free round trip —
    // the difference the e8 bench and gpumip.gpu.alloc.calls witness.
    gpu::DeviceBuffer node_residency;
    if (options_.relax_device != nullptr) {
      const std::uint64_t footprint =
          method == lp::LpMethod::Pdhg
              ? lp::pdhg_lp_device_bytes(form_->num_rows, form_->num_vars,
                                         static_cast<long>(form_->a_rows.nnz()))
              : lp::dense_lp_device_bytes(form_->num_rows, form_->num_vars);
      if (options_.relax_arena != nullptr) {
        options_.relax_arena->reset();
        (void)options_.relax_arena->allot(static_cast<std::size_t>(footprint));
      } else {
        // gpumip-lint: hot-alloc(naive per-node device residency is the modeled baseline the arena path is measured against)
        node_residency =
            options_.relax_device->alloc(static_cast<std::size_t>(footprint), "node.lp");
      }
    }
    lp::LpResult lp_result;
    switch (method) {
      case lp::LpMethod::Simplex: {
        const lp::BasisInverse inherited{inverses.find(node), node.inverse_etas};
        lp_result = node.warm_basis.empty()
                        ? lp_solver_->solve(node.lb, node.ub, nullptr)
                        : lp_solver_->resolve_dual(node.lb, node.ub, node.warm_basis, &inherited);
        break;
      }
      case lp::LpMethod::InteriorPoint:
        lp_result = ipm_solver_->solve(node.lb, node.ub);
        break;
      case lp::LpMethod::Pdhg: {
        const lp::PdhgWarmStart warm{node.warm_x, node.warm_y};
        lp_result = pdhg_solver_->solve(node.lb, node.ub,
                                        method_ctx.warm_iterates ? &warm : nullptr);
        break;
      }
    }
    // First-order / interior-point bounds are tol-approximate, not
    // vertex-exact: pad every pruning comparison so an approximate bound
    // can never cut off the true optimum (docs/METHODS.md, accuracy
    // contracts).
    const double bound_pad =
        method == lp::LpMethod::Simplex
            ? 0.0
            : (method == lp::LpMethod::Pdhg ? options_.pdhg.tol : options_.ipm.tol) *
                  (1.0 + std::fabs(lp_result.objective));

    NodeTrace tr;
    tr.node_id = id;
    tr.parent = node.parent;
    tr.hot = node.parent >= 0 && node.parent == last_evaluated;
    tr.inherited = lp_result.inherited_inverse;
    tr.lp_status = lp_result.status;
    tr.ops = lp_result.ops;
    trace_.push_back(tr);
    if (tr.hot) {
      ++stats_.hot_nodes;
      GPUMIP_OBS_COUNT("gpumip.mip.nodes.reuse_hits");
    }
    stats_.total_ops.add(lp_result.ops);
    stats_.lp_iterations += lp_result.iterations;
    ++stats_.nodes_evaluated;
    GPUMIP_OBS_COUNT("gpumip.mip.nodes.evaluated");
    GPUMIP_TRACE_INSTANT("gpumip.mip.node.evaluated", id);
    last_evaluated = id;
    node.lp_objective = lp_result.objective;

    if (lp_result.status == lp::LpStatus::Infeasible) {
      pool_->set_state(id, NodeState::InfeasibleLeaf);
      continue;
    }
    if (lp_result.status == lp::LpStatus::Unbounded) {
      result.status = MipStatus::Unbounded;
      return result;
    }
    if (lp_result.status != lp::LpStatus::Optimal) {
      // Numerical trouble / iteration limit: treat conservatively as a leaf
      // we cannot prune by bound (keeps correctness on the safe side: we
      // only lose optimality certification if this ever triggers).
      GPUMIP_LOG(Warn) << "node " << id << " LP ended " << lp::lp_status_name(lp_result.status);
      pool_->set_state(id, NodeState::InfeasibleLeaf);
      continue;
    }

    if (lp_result.objective - bound_pad >= incumbent_obj_ - 1e-9) {
      pool_->set_state(id, NodeState::PrunedLeaf);
      GPUMIP_TRACE_INSTANT("gpumip.mip.node.pruned", id);
      continue;
    }

    if (model_.is_integral(lp_result.x, options_.int_tol)) {
      pool_->set_state(id, NodeState::FeasibleLeaf);
      try_incumbent(lp_result.objective,
                    std::span<const double>(lp_result.x.data(),
                                            static_cast<std::size_t>(model_.num_cols())));
      continue;
    }

    // Heuristics at the root.
    if (options_.enable_heuristics && node.parent < 0) {
      HeuristicResult h = rounding_heuristic(model_, rows_, *form_, lp_result.x, options_.int_tol);
      if (!h.found) {
        h = diving_heuristic(model_, *form_, *lp_solver_, lp_result, 2 * model_.num_cols() + 10,
                             options_.int_tol);
      }
      if (h.found && try_incumbent(h.objective, h.x)) {
        ++stats_.heuristic_incumbents;
      }
    }
    if (node.parent < 0) stats_.root_bound = lp_result.objective;

    const int var = select_branch_var(lp_result.x, model_.integer_flags(), options_.int_tol);
    check_internal(var >= 0, "no fractional variable in a non-integral node");
    const double value = lp_result.x[static_cast<std::size_t>(var)];

    BnbNode down;
    down.parent = id;
    down.depth = node.depth + 1;
    down.branch_var = var;
    down.branch_up = false;
    down.bound = lp_result.objective - bound_pad;
    down.lb = node.lb;
    down.ub = node.ub;
    down.ub[static_cast<std::size_t>(var)] = std::floor(value);
    down.warm_basis = lp_result.basis;
    if (method == lp::LpMethod::Pdhg) {
      // Basis-free warm-start currency: children restart PDHG from the
      // parent's primal/dual iterates (projected into their bounds).
      down.warm_x = lp_result.x;
      down.warm_y = lp_result.duals;
    }

    BnbNode up = down;
    up.branch_up = true;
    up.ub = node.ub;
    up.lb = node.lb;
    up.lb[static_cast<std::size_t>(var)] = std::ceil(value);

    pool_->set_state(id, NodeState::Branched);
    GPUMIP_TRACE_INSTANT("gpumip.mip.node.branched", id);
    const auto k = static_cast<std::size_t>(var);
    const bool push_down = down.lb[k] <= down.ub[k] + 1e-9;
    const bool push_up = up.lb[k] <= up.ub[k] + 1e-9;
    if (!lp_result.binv.empty() && (push_down || push_up)) {
      // Branching changes bounds, never B: the final inverse is exactly
      // where each child's dual simplex starts.
      down.inverse_slot = up.inverse_slot =
          inverses.keep(*pool_, id, down.bound, lp_result.binv);
      down.inverse_etas = up.inverse_etas = lp_result.etas_since_refactor;
    }
    const int slot = down.inverse_slot;
    if (push_down) {
      const int child = pool_->push(std::move(down));
      if (slot >= 0) inverses.add_child(slot, child);
    }
    if (push_up) {
      const int child = pool_->push(std::move(up));
      if (slot >= 0) inverses.add_child(slot, child);
    }
  }

  // Assemble the result.
  GPUMIP_VALIDATE(check::check_tree(*pool_));
  stats_.anatomy = pool_->anatomy();
#ifdef GPUMIP_OBS_ENABLED
  // Paper C5: fraction of evaluated nodes whose parent matrix was still
  // device-resident. Cumulative across all solves in this process.
  {
    const std::uint64_t hits = ::gpumip::obs::counter("gpumip.mip.nodes.reuse_hits").value();
    const std::uint64_t evals = ::gpumip::obs::counter("gpumip.mip.nodes.evaluated").value();
    GPUMIP_OBS_GAUGE_SET("gpumip.mip.reuse.hit_rate",
                         evals == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(evals));
  }
#endif
  result.stats = stats_;
  result.has_solution = !incumbent_x_.empty();
  if (hit_node_limit) {
    result.status = MipStatus::NodeLimit;
  } else {
    result.status = result.has_solution ? MipStatus::Optimal : MipStatus::Infeasible;
  }
  const double best_bound =
      pool_->active_empty() ? incumbent_obj_ : std::min(pool_->best_active_bound(), incumbent_obj_);
  result.bound = form_->user_objective(best_bound);
  if (result.has_solution) {
    result.objective = form_->user_objective(incumbent_obj_);
    result.x = incumbent_x_;
  }
  return result;
}

void check_resumable(const MipModel& model, const lp::StandardForm& form,
                     const ConsistentSnapshot& snapshot, double int_tol) {
  const auto n = static_cast<std::size_t>(form.num_vars);
  for (std::size_t i = 0; i < snapshot.frontier.size(); ++i) {
    const SnapshotNode& node = snapshot.frontier[i];
    if (node.lb.size() != n || node.ub.size() != n) {
      throw Error(ErrorCode::kInvalidArgument,
                  "snapshot frontier node " + std::to_string(i) + " has " +
                      std::to_string(node.lb.size()) + "/" + std::to_string(node.ub.size()) +
                      " bounds, the model's standard form has " + std::to_string(n) +
                      " variables");
    }
    for (std::size_t j = 0; j < n; ++j) {
      // Negated so that a NaN bound fails too.
      if (!(node.lb[j] >= form.lb[j] - kBoundSlack && node.ub[j] <= form.ub[j] + kBoundSlack)) {
        throw Error(ErrorCode::kInvalidArgument,
                    "snapshot frontier node " + std::to_string(i) + ": bounds of variable " +
                        std::to_string(j) + " lie outside the model's");
      }
    }
    // The simplex warm start trusts a basis's statuses: a column flagged
    // Basic but missing from `basic` would sit at 0 unpriced, and the node
    // would still report Optimal.
    if (!node.basis.empty()) {
      if (const char* fault = lp::basis_fault(node.basis, form.num_rows, form.num_vars)) {
        throw Error(ErrorCode::kInvalidArgument,
                    "snapshot frontier node " + std::to_string(i) + ": basis " + fault);
      }
    }
  }

  const linalg::Vector& x = snapshot.incumbent_x;
  if (x.empty()) return;
  if (x.size() != static_cast<std::size_t>(form.num_struct)) {
    throw Error(ErrorCode::kInvalidArgument,
                "snapshot incumbent has " + std::to_string(x.size()) + " entries, the model has " +
                    std::to_string(form.num_struct) + " columns");
  }
  for (int j = 0; j < form.num_struct; ++j) {
    const auto k = static_cast<std::size_t>(j);
    if (!within(x[k], form.lb[k], form.ub[k])) {
      throw Error(ErrorCode::kInvalidArgument,
                  "snapshot incumbent violates the bounds of column " + std::to_string(j));
    }
  }
  // The standard form keeps each model row's structural coefficients as
  // they are (only slack columns are added), so its CSR gives the row
  // activities without building the model's matrix.
  const sparse::Csr& a = form.a_rows;
  for (int i = 0; i < form.num_rows; ++i) {
    double activity = 0.0;
    for (int k = a.row_start[static_cast<std::size_t>(i)];
         k < a.row_start[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = a.col_index[static_cast<std::size_t>(k)];
      if (j < form.num_struct) {
        activity += a.values[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(j)];
      }
    }
    const lp::RowDef& row = model.lp().row(i);
    if (!within(activity, row.lb, row.ub)) {
      throw Error(ErrorCode::kInvalidArgument,
                  "snapshot incumbent violates row " + std::to_string(i));
    }
  }
  if (!model.is_integral(x, int_tol)) {
    throw Error(ErrorCode::kInvalidArgument, "snapshot incumbent is not integral");
  }
}

MipResult solve_by_enumeration(const MipModel& model, double int_tol) {
  model.validate();
  MipResult result;
  const lp::StandardForm form = lp::build_standard_form(model.lp());
  // Enumerate assignments of integer variables within their bounds.
  std::vector<int> int_vars;
  for (int j = 0; j < model.num_cols(); ++j) {
    if (model.is_integer(j)) int_vars.push_back(j);
  }
  for (int j : int_vars) {
    check_arg(std::isfinite(model.lp().col(j).lb) && std::isfinite(model.lp().col(j).ub),
              "enumeration requires bounded integer variables");
    check_arg(model.lp().col(j).ub - model.lp().col(j).lb <= 64,
              "enumeration domain too large");
  }
  double best = 1e300;
  linalg::Vector best_x;
  lp::SimplexSolver solver(form);

  std::function<void(std::size_t, linalg::Vector&, linalg::Vector&)> recurse =
      [&](std::size_t idx, linalg::Vector& lb, linalg::Vector& ub) {
        if (idx == int_vars.size()) {
          lp::LpResult r = solver.solve(lb, ub, nullptr);
          if (r.status == lp::LpStatus::Optimal && r.objective < best - 1e-12) {
            best = r.objective;
            best_x.assign(r.x.begin(), r.x.begin() + model.num_cols());
          }
          return;
        }
        const int j = int_vars[idx];
        const std::size_t k = static_cast<std::size_t>(j);
        const double lo = std::ceil(model.lp().col(j).lb - int_tol);
        const double hi = std::floor(model.lp().col(j).ub + int_tol);
        const double save_lb = lb[k], save_ub = ub[k];
        for (double v = lo; v <= hi + 1e-9; v += 1.0) {
          lb[k] = ub[k] = v;
          recurse(idx + 1, lb, ub);
        }
        lb[k] = save_lb;
        ub[k] = save_ub;
      };
  linalg::Vector lb = form.lb, ub = form.ub;
  recurse(0, lb, ub);

  result.has_solution = best < 1e299;
  result.status = result.has_solution ? MipStatus::Optimal : MipStatus::Infeasible;
  if (result.has_solution) {
    result.objective = form.user_objective(best);
    result.bound = result.objective;
    result.x = best_x;
  }
  return result;
}

}  // namespace gpumip::mip
