#include "parallel/supervisor.hpp"

#include <algorithm>
#include <deque>
#include <functional>

#include "check/invariants.hpp"
#include "check/message_audit.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"

namespace gpumip::parallel {

namespace {

enum Tag : int {
  kTagRequest = 1,  // worker -> supervisor: idle, wants work
  kTagWork = 2,     // supervisor -> worker: one subproblem
  kTagResult = 3,   // worker -> supervisor: assignment outcome
  kTagStop = 4,     // supervisor -> worker: shut down
};

/// Smallest encoding of a frontier node: bound, depth and four empty arrays.
constexpr std::size_t kMinNodeBytes = sizeof(double) + sizeof(int) + 4 * sizeof(std::uint64_t);

/// One frontier node's fields in wire order; bases travel as `basic` ints
/// and one status byte each.
void write_node(ByteWriter& w, const mip::SnapshotNode& node) {
  w.write(node.bound);
  w.write(node.depth);
  w.write_doubles(node.lb);
  w.write_doubles(node.ub);
  w.write_ints(node.basis.basic);
  w.write<std::uint64_t>(node.basis.status.size());
  for (lp::VarStatus st : node.basis.status) w.write<std::uint8_t>(static_cast<std::uint8_t>(st));
}

mip::SnapshotNode read_node(ByteReader& r) {
  mip::SnapshotNode node;
  node.bound = r.read<double>();
  node.depth = r.read<int>();
  node.lb = r.read_doubles();
  node.ub = r.read_doubles();
  node.basis.basic = r.read_ints();
  const auto count = r.read<std::uint64_t>();
  check_protocol(count <= r.remaining(), "read_node: status count exceeds the payload");
  // gpumip-lint: hot-alloc(decode materializes the basis the worker keeps; sized exactly from the header)
  node.basis.status.resize(count);
  for (lp::VarStatus& st : node.basis.status) {
    const auto code = r.read<std::uint8_t>();
    check_protocol(code <= static_cast<std::uint8_t>(lp::VarStatus::Free),
                   "read_node: status byte out of range");
    st = static_cast<lp::VarStatus>(code);
  }
  return node;
}

}  // namespace

std::vector<std::byte> encode_subproblem(const mip::SnapshotNode& node, double cutoff,
                                         std::uint64_t track_id) {
  ByteWriter w;
  w.write(track_id);
  w.write(cutoff);
  write_node(w, node);
  return std::move(w).take();
}

WorkItem decode_subproblem(std::span<const std::byte> payload) {
  ByteReader r(payload);
  WorkItem item;
  item.track_id = r.read<std::uint64_t>();
  item.cutoff = r.read<double>();
  item.node = read_node(r);
  check_protocol(r.exhausted(), "decode_subproblem: trailing bytes after payload");
  return item;
}

namespace {

struct WorkerReport {
  std::uint64_t track_id = 0;  ///< echo of the assignment's tracking id
  bool improved = false;
  double objective = 0.0;
  linalg::Vector x;
  std::vector<mip::SnapshotNode> frontier;  // unsolved remainder (node budget hit)
  long nodes = 0;
  double busy_seconds = 0.0;
};

std::vector<std::byte> encode_report(const WorkerReport& report) {
  ByteWriter w;
  w.write(report.track_id);
  w.write<std::uint8_t>(report.improved ? 1 : 0);
  w.write(report.objective);
  w.write_doubles(report.x);
  w.write(report.nodes);
  w.write(report.busy_seconds);
  w.write<std::uint64_t>(report.frontier.size());
  for (const mip::SnapshotNode& node : report.frontier) write_node(w, node);
  return std::move(w).take();
}

WorkerReport decode_report(std::span<const std::byte> payload) {
  ByteReader r(payload);
  WorkerReport report;
  report.track_id = r.read<std::uint64_t>();
  report.improved = r.read<std::uint8_t>() != 0;
  report.objective = r.read<double>();
  report.x = r.read_doubles();
  report.nodes = r.read<long>();
  report.busy_seconds = r.read<double>();
  const auto count = r.read<std::uint64_t>();
  check_protocol(count <= r.remaining() / kMinNodeBytes,
                 "decode_report: frontier count exceeds the payload");
  // gpumip-lint: hot-alloc(decode materializes the worker's returned frontier; sized exactly from the header)
  report.frontier.resize(count);
  for (mip::SnapshotNode& node : report.frontier) node = read_node(r);
  check_protocol(r.exhausted(), "decode_report: trailing bytes after payload");
  return report;
}

SupervisorResult run_supervised(const mip::MipModel& model,
                                const mip::ConsistentSnapshot* resume,
                                const SupervisorOptions& options) {
  check_arg(options.workers >= 1, "supervisor: need at least one worker");
  SupervisorResult out;
  // gpumip-lint: hot-alloc(per-worker result tables sized once at startup, before any dispatch)
  out.worker_nodes.assign(static_cast<std::size_t>(options.workers), 0);
  // gpumip-lint: hot-alloc(per-worker result tables sized once at startup, before any dispatch)
  out.worker_busy.assign(static_cast<std::size_t>(options.workers), 0.0);

  // ---- supervisor-side ramp-up (sequential, before ranks start) ----
  // Run the root (with cuts + heuristics per options) under the
  // ramp_up_nodes budget; its snapshot seeds the pool.
  mip::MipOptions ramp_opts = options.mip;
  ramp_opts.max_nodes = options.ramp_up_nodes;
  mip::BnbSolver ramp_solver(model, ramp_opts);

  mip::ConsistentSnapshot seed;
  double incumbent_obj = 1e300;
  linalg::Vector incumbent_x;
  bool solved_in_ramp_up = false;
  mip::MipResult ramp_result;

  if (resume != nullptr) {
    // The snapshot must fit the model before any rank starts (cuts must
    // match the original run: mip.enable_cuts must be false for resumable
    // runs; documented in the header).
    mip::check_resumable(model, lp::build_standard_form(model.lp()), *resume,
                         options.mip.int_tol);
    seed = *resume;
    if (seed.has_incumbent()) {
      incumbent_obj = seed.incumbent_objective;
      incumbent_x = seed.incumbent_x;
    }
  } else {
    ramp_result = ramp_solver.solve();
    if (ramp_result.status == mip::MipStatus::NodeLimit) {
      seed = ramp_solver.capture_snapshot();
      if (seed.has_incumbent()) {
        incumbent_obj = seed.incumbent_objective;
        incumbent_x = seed.incumbent_x;
      }
    } else {
      solved_in_ramp_up = true;
    }
    // Simulated ramp-up cost: the supervisor's own LP work.
    out.ramp_up_seconds =
        lp::cpu_seconds(ramp_result.stats.total_ops) * options.rate_scale;
  }

  if (solved_in_ramp_up) {
    out.result = ramp_result;
    out.makespan = out.ramp_up_seconds;
    return out;
  }

  // Workers all search the same strengthened model.
  const mip::MipModel& working_model =
      resume != nullptr ? model : ramp_solver.working_model();

  std::deque<mip::SnapshotNode> pool;
  for (mip::SnapshotNode& node : seed.frontier) {
    // gpumip-lint: hot-alloc(the subproblem pool IS the search state; its size is the frontier width, not the node count)
    pool.push_back(std::move(node));
  }

  const int ranks = options.workers + 1;
  long dispatched_total = 0;
  long checkpoints = 0;
  // Every subproblem shipped supervisor->worker is tracked; at shutdown the
  // auditor proves none was lost or double-delivered (checked builds throw,
  // release builds log).
  check::MessageAuditor auditor;

  auto body = [&](Comm& comm) {
    if (comm.rank() == 0) {
      // ------------- supervisor -------------
      comm.advance(out.ramp_up_seconds);
      int outstanding = 0;
      std::vector<int> waiting;  // idle workers with no work yet
      int first_requests = 0;    // workers heard from in the first round
      int stopped = 0;
      long completed = 0;

      auto best_pool_node = [&]() {
        std::size_t best = 0;
        for (std::size_t i = 1; i < pool.size(); ++i) {
          if (pool[i].bound < pool[best].bound) best = i;
        }
        return best;
      };
      auto dispatch = [&](int worker) {
        const std::size_t idx = best_pool_node();
        mip::SnapshotNode sub = std::move(pool[idx]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
        const std::uint64_t track_id = auditor.shipped(worker);
        comm.send(worker, kTagWork, encode_subproblem(sub, incumbent_obj, track_id));
        ++outstanding;
        ++dispatched_total;
        GPUMIP_OBS_COUNT("gpumip.supervisor.dispatched");
#ifdef GPUMIP_OBS_ENABLED
        // Per-worker dispatch counts as a rank dimension on the family
        // (low frequency: one lookup per dispatched subproblem).
        obs::counter("gpumip.supervisor.dispatched", {{"rank", std::to_string(worker)}}).add(1);
#endif
        GPUMIP_TRACE_INSTANT("gpumip.supervisor.dispatch", static_cast<std::uint64_t>(worker));
      };
      auto emit_checkpoint = [&] {
        if (options.checkpoint_interval <= 0 || !options.on_checkpoint) return;
        if (completed == 0 || completed % options.checkpoint_interval != 0) return;
        // Consistent parallel snapshot: queued nodes only would LOSE the
        // in-flight assignments; since outstanding work is unfinished, the
        // snapshot is only emitted when nothing is in flight. (The
        // supervisor could also retain dispatched copies; we keep the
        // stronger quiesced-point semantics and emit opportunistically.)
        if (outstanding != 0) return;
        mip::ConsistentSnapshot snap;
        snap.incumbent_objective = incumbent_obj;
        snap.incumbent_x = incumbent_x;
        snap.nodes_solved_so_far = completed;
        for (const mip::SnapshotNode& sub : pool) {
          // gpumip-lint: hot-alloc(checkpoint snapshot copies the live frontier by design (C2 coverage proof))
          snap.frontier.push_back(sub);
        }
        // Paper C2: the emitted snapshot must cover the live search — the
        // in-flight count is part of the validated condition.
        GPUMIP_VALIDATE(check::check_snapshot(snap, nullptr, outstanding));
        options.on_checkpoint(snap);
        ++checkpoints;
        GPUMIP_OBS_COUNT("gpumip.supervisor.checkpoints");
        GPUMIP_TRACE_INSTANT("gpumip.supervisor.checkpoint", static_cast<std::uint64_t>(completed));
      };

      while (stopped < options.workers) {
        Message msg = comm.recv();
        if (msg.tag == kTagResult) {
          --outstanding;
          ++completed;
          WorkerReport report = decode_report(msg.payload);
          auditor.completed(report.track_id);
          out.worker_nodes[static_cast<std::size_t>(msg.source - 1)] += report.nodes;
          out.worker_busy[static_cast<std::size_t>(msg.source - 1)] += report.busy_seconds;
          GPUMIP_OBS_COUNT("gpumip.supervisor.completed");
          GPUMIP_TRACE_INSTANT("gpumip.supervisor.result", static_cast<std::uint64_t>(msg.source));
          GPUMIP_OBS_RECORD("gpumip.supervisor.worker_busy_seconds", report.busy_seconds);
#ifdef GPUMIP_OBS_ENABLED
          // Same distribution split by worker rank, so gpumip-report can
          // attribute busy-time skew to a specific rank.
          obs::histogram("gpumip.supervisor.worker_busy_seconds",
                         {{"rank", std::to_string(msg.source)}})
              .record(report.busy_seconds);
#endif
          if (report.improved && report.objective < incumbent_obj - 1e-12) {
            incumbent_obj = report.objective;
            incumbent_x = report.x;
            // Prune the pool against the new incumbent.
            std::erase_if(pool, [&](const mip::SnapshotNode& sub) {
              return sub.bound >= incumbent_obj - 1e-9;
            });
          }
          for (mip::SnapshotNode& sub : report.frontier) {
            // gpumip-lint: hot-alloc(surviving subproblems move into the pool; bound vectors and bases are moved, not copied)
            if (sub.bound < incumbent_obj - 1e-9) pool.push_back(std::move(sub));
          }
          emit_checkpoint();
          continue;
        }
        check_internal(msg.tag == kTagRequest, "supervisor: unexpected tag");
        // The first round waits for every worker's first request: all of
        // them carry simulated time ~0, while a worker that re-requests has
        // already spent its busy time, so serving on arrival would let the
        // fastest thread take the whole frontier.
        const bool first_round = first_requests < options.workers;
        if (first_round) ++first_requests;
        if (!first_round && !pool.empty()) {
          dispatch(msg.source);
        } else if (first_round || outstanding > 0) {
          // gpumip-lint: hot-alloc(idle-worker list bounded by the worker count)
          waiting.push_back(msg.source);
        } else {
          comm.send(msg.source, kTagStop, {});
          ++stopped;
        }
        if (first_requests < options.workers) continue;
        // Serve the first round lowest rank first (the loop pops the back).
        if (first_round) std::sort(waiting.begin(), waiting.end(), std::greater<>());
        // Serve newly available work to waiting workers.
        while (!waiting.empty() && !pool.empty()) {
          const int worker = waiting.back();
          waiting.pop_back();
          dispatch(worker);
        }
        // If the pool drained and nothing is outstanding, release waiters.
        if (pool.empty() && outstanding == 0) {
          for (int worker : waiting) {
            comm.send(worker, kTagStop, {});
            ++stopped;
          }
          waiting.clear();
        }
      }
    } else {
      // ------------- worker -------------
      // One solver per rank: its model copy, standard form and LP solvers
      // serve every subproblem. The cutoff rides in each task's incumbent
      // objective.
      mip::MipOptions wopts = options.mip;
      wopts.enable_cuts = false;  // the model is already strengthened
      wopts.max_nodes = options.worker_node_budget;
      mip::BnbSolver solver(working_model, wopts);
      mip::ConsistentSnapshot task;
      // gpumip-lint: hot-alloc(the one-node task of the worker's solver, sized once per rank)
      task.frontier.resize(1);
      for (;;) {
        comm.send(0, kTagRequest, {});
        Message msg = comm.recv(0);
        if (msg.tag == kTagStop) break;
        check_internal(msg.tag == kTagWork, "worker: unexpected tag");
        WorkItem item = decode_subproblem(msg.payload);
        auditor.delivered(item.track_id, comm.rank());
        task.incumbent_objective = item.cutoff;
        task.frontier.front() = std::move(item.node);

        mip::MipResult r;
        WorkerReport report;
        report.track_id = item.track_id;
        {
          // The span closes after advance(), so its simulated duration is
          // the subproblem's compute time — the per-rank "busy" segments
          // the trace analyzer aggregates.
          GPUMIP_TRACE_SCOPE("gpumip.worker.subproblem", item.track_id);
          r = solver.solve_from(task);
          report.nodes = r.stats.nodes_evaluated;
          report.busy_seconds = lp::cpu_seconds(r.stats.total_ops) * options.rate_scale;
          comm.advance(report.busy_seconds);
        }
        if (r.has_solution) {
          // r.objective is user-sense; convert back to min form via the
          // model sense for supervisor-side comparison.
          const double min_obj =
              working_model.lp().sense() == lp::Sense::Maximize ? -r.objective : r.objective;
          report.improved = true;
          report.objective = min_obj;
          report.x = r.x;
        }
        if (r.status == mip::MipStatus::NodeLimit) {
          // The unfinished frontier, bases included, rides back to the
          // supervisor in the report payload.
          report.frontier = std::move(solver.capture_snapshot().frontier);
        }
        comm.send(0, kTagResult, encode_report(report));
      }
    }
  };

  RunOptions run_options;
  run_options.network = options.network;
  run_options.schedule = options.schedule;
  RunReport run = run_ranks(ranks, body, run_options);

  // Shutdown audit: every shipped subproblem must have come back exactly
  // once. Checked builds fail hard; release builds log and continue.
  if constexpr (kCheckedBuild) {
    auditor.finalize();
  } else if (auditor.in_flight() != 0 || auditor.anomalies() != 0) {
    GPUMIP_LOG(Warn) << "supervisor message audit: " << auditor.report();
  }

  out.makespan = run.makespan;
  out.network = run.network;
  out.subproblems_dispatched = dispatched_total;
  out.checkpoints_emitted = checkpoints;

  // Final result assembly (supervisor state).
  const lp::StandardForm form = lp::build_standard_form(working_model.lp());
  out.result.has_solution = !incumbent_x.empty();
  out.result.status =
      out.result.has_solution ? mip::MipStatus::Optimal : mip::MipStatus::Infeasible;
  if (out.result.has_solution) {
    out.result.objective = form.user_objective(incumbent_obj);
    out.result.bound = out.result.objective;
    out.result.x = incumbent_x;
  }
  for (long n : out.worker_nodes) out.result.stats.nodes_evaluated += n;
  return out;
}

}  // namespace

SupervisorResult solve_supervised(const mip::MipModel& model, const SupervisorOptions& options) {
  return run_supervised(model, nullptr, options);
}

SupervisorResult resume_supervised(const mip::MipModel& model,
                                   const mip::ConsistentSnapshot& snapshot,
                                   const SupervisorOptions& options) {
  return run_supervised(model, &snapshot, options);
}

}  // namespace gpumip::parallel
