// UG-style supervisor-worker parallel MIP solve (paper section 2.3) on the
// simmpi runtime:
//
//  * ramp-up: the supervisor expands the tree breadth-style until there are
//    enough open subproblems to feed the workers,
//  * dynamic load balancing: workers solve subproblems under a node budget
//    and return their unsolved frontier to the supervisor's pool,
//  * incumbent sharing: new incumbents propagate as cutoffs with the next
//    assignment,
//  * checkpointing: the supervisor can emit consistent snapshots that
//    include BOTH the queued subproblems and the in-flight assignments —
//    the non-trivial part of parallel snapshot consistency the paper
//    highlights (section 2.1),
//  * restart: a run can resume from such a snapshot.
#pragma once

#include <functional>
#include <string>

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
  /// Model per-node LP device residency on the workers: each worker rank
  /// gets a gpu::Device and (worker_arena) a DeviceArena threaded into its
  /// BnbSolver, so the e8 bench witnesses the per-node alloc-vs-arena
  /// difference (ROADMAP item 4). Off by default: purely observational.
  bool model_worker_device = false;
  /// Reuse one arena across all of a worker's node solves (the point of
  /// the exercise); false = naive per-node Device::alloc/free.
  bool worker_arena = true;
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

/// Solves `model` with one supervisor rank and options.workers workers.
SupervisorResult solve_supervised(const mip::MipModel& model, const SupervisorOptions& options);

/// Resumes from a snapshot captured by a prior (possibly interrupted) run.
/// The snapshot must come from the same model (after identical root cuts,
/// i.e. from this function or a cuts-disabled run).
SupervisorResult resume_supervised(const mip::MipModel& model,
                                   const mip::ConsistentSnapshot& snapshot,
                                   const SupervisorOptions& options);

}  // namespace gpumip::parallel
