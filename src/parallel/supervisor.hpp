// UG-style supervisor-worker parallel MIP solve (paper section 2.3) on the
// simmpi runtime:
//
//  * ramp-up: the supervisor expands the tree breadth-style until there are
//    enough open subproblems to feed the workers,
//  * dynamic load balancing: workers solve subproblems under a node budget
//    and return their unsolved frontier to the supervisor's pool; every
//    subproblem carries its parent's basis, so it starts warm,
//  * incumbent sharing: new incumbents propagate as cutoffs with the next
//    assignment,
//  * checkpointing: the supervisor can emit consistent snapshots that
//    include BOTH the queued subproblems and the in-flight assignments —
//    the non-trivial part of parallel snapshot consistency the paper
//    highlights (section 2.1),
//  * restart: a run can resume from such a snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mip/solver.hpp"
#include "parallel/simmpi.hpp"

namespace gpumip::parallel {

struct SupervisorOptions {
  int workers = 4;
  long ramp_up_nodes = 64;        ///< supervisor node budget for ramp-up
  long worker_node_budget = 500;  ///< nodes per assignment
  mip::MipOptions mip;            ///< base engine options (cuts run once, at ramp-up)
  NetworkConfig network;
  /// Schedule controls for the underlying run_ranks world (delivery-order
  /// fuzzing, deadlock detection, trace record/replay). The supervisor
  /// protocol must produce the same incumbent under every legal schedule;
  /// tests/test_schedule.cpp sweeps seeds to prove it.
  ScheduleConfig schedule;
  /// Worker compute-rate scale: simulated seconds advanced per assignment
  /// are cpu_seconds(ops) * rate_scale (use < 1 to model GPU-accelerated
  /// workers).
  double rate_scale = 1.0;
  /// Checkpoint every N completed assignments (0 = never).
  int checkpoint_interval = 0;
  std::function<void(const mip::ConsistentSnapshot&)> on_checkpoint;
};

struct SupervisorResult {
  mip::MipResult result;
  double makespan = 0.0;           ///< simulated parallel time
  double ramp_up_seconds = 0.0;    ///< simulated supervisor ramp-up time
  NetworkStats network;
  long subproblems_dispatched = 0;
  long checkpoints_emitted = 0;
  std::vector<long> worker_nodes;  ///< nodes evaluated per worker (balance)
  std::vector<double> worker_busy; ///< simulated busy seconds per worker
};

/// One subproblem as a worker receives it: a frontier node {lb, ub, bound,
/// depth, basis}, the cutoff (the supervisor's incumbent objective, min
/// form) and the message-audit tracking id. The node's basis lets the
/// worker start with the dual simplex instead of a cold primal solve.
struct WorkItem {
  std::uint64_t track_id = 0;
  double cutoff = 1e300;
  mip::SnapshotNode node;
};

/// Wire format of a WorkItem: the node's bounds as doubles, its basis as
/// `basic` ints and one byte per status.
std::vector<std::byte> encode_subproblem(const mip::SnapshotNode& node, double cutoff,
                                         std::uint64_t track_id);

/// Inverse of encode_subproblem. Throws Error(kProtocolError) on a
/// malformed payload: truncated, overlong, or a status byte that names no
/// lp::VarStatus. Whether the basis fits the model is check_resumable's
/// call, on the worker.
[[nodiscard]] WorkItem decode_subproblem(std::span<const std::byte> payload);

/// Solves `model` with one supervisor rank and options.workers workers.
SupervisorResult solve_supervised(const mip::MipModel& model, const SupervisorOptions& options);

/// Resumes from a snapshot captured by a prior (possibly interrupted) run.
/// The snapshot must come from the same model (after identical root cuts,
/// i.e. from this function or a cuts-disabled run). Throws
/// Error(kInvalidArgument) before any rank starts when the snapshot does
/// not fit the model (see mip::check_resumable).
SupervisorResult resume_supervised(const mip::MipModel& model,
                                   const mip::ConsistentSnapshot& snapshot,
                                   const SupervisorOptions& options);

}  // namespace gpumip::parallel
