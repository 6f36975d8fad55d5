#include "parallel/supervisor.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "check/invariants.hpp"
#include "check/message_audit.hpp"
#include "gpu/arena.hpp"
#include "gpu/device.hpp"
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

struct Subproblem {
  linalg::Vector lb, ub;
  double bound = -1e300;
  int depth = 0;
};

std::vector<std::byte> encode_subproblem(const Subproblem& sub, double cutoff,
                                         std::uint64_t track_id) {
  ByteWriter w;
  w.write(track_id);
  w.write(cutoff);
  w.write(sub.bound);
  w.write(sub.depth);
  w.write_doubles(sub.lb);
  w.write_doubles(sub.ub);
  return std::move(w).take();
}

struct WorkItem {
  std::uint64_t track_id = 0;  ///< message-audit tracking id
  double cutoff;
  Subproblem sub;
};

WorkItem decode_subproblem(std::span<const std::byte> payload) {
  ByteReader r(payload);
  WorkItem item;
  item.track_id = r.read<std::uint64_t>();
  item.cutoff = r.read<double>();
  item.sub.bound = r.read<double>();
  item.sub.depth = r.read<int>();
  item.sub.lb = r.read_doubles();
  item.sub.ub = r.read_doubles();
  check_protocol(r.exhausted(), "decode_subproblem: trailing bytes after payload");
  return item;
}

struct WorkerReport {
  std::uint64_t track_id = 0;  ///< echo of the assignment's tracking id
  bool improved = false;
  double objective = 0.0;
  linalg::Vector x;
  std::vector<Subproblem> frontier;  // unsolved remainder (node budget hit)
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
  for (const Subproblem& sub : report.frontier) {
    w.write(sub.bound);
    w.write(sub.depth);
    w.write_doubles(sub.lb);
    w.write_doubles(sub.ub);
  }
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
  // gpumip-lint: hot-alloc(decode materializes the worker's returned frontier; sized exactly from the header)
  report.frontier.resize(count);
  for (Subproblem& sub : report.frontier) {
    sub.bound = r.read<double>();
    sub.depth = r.read<int>();
    sub.lb = r.read_doubles();
    sub.ub = r.read_doubles();
  }
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
    seed = *resume;
    if (seed.has_incumbent()) {
      incumbent_obj = seed.incumbent_objective;
      incumbent_x = seed.incumbent_x;
    }
    // A resume still needs the engine's standard form: run a zero-node
    // solve to build it (cuts must match the original run: mip.enable_cuts
    // must be false for resumable runs; documented in the header).
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

  std::deque<Subproblem> pool;
  for (const mip::SnapshotNode& node : seed.frontier) {
    // gpumip-lint: hot-alloc(the subproblem pool IS the search state; its size is the frontier width, not the node count)
    pool.push_back({node.lb, node.ub, node.bound, node.depth});
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
        Subproblem sub = std::move(pool[idx]);
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
        for (const Subproblem& sub : pool) {
          // gpumip-lint: hot-alloc(checkpoint snapshot copies the live frontier by design (C2 coverage proof))
          snap.frontier.push_back({sub.lb, sub.ub, sub.bound, sub.depth});
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
            std::erase_if(pool, [&](const Subproblem& sub) {
              return sub.bound >= incumbent_obj - 1e-9;
            });
          }
          for (Subproblem& sub : report.frontier) {
            // gpumip-lint: hot-alloc(surviving subproblems move into the pool; bound vectors are moved, not copied)
            if (sub.bound < incumbent_obj - 1e-9) pool.push_back(std::move(sub));
          }
          emit_checkpoint();
          continue;
        }
        check_internal(msg.tag == kTagRequest, "supervisor: unexpected tag");
        if (!pool.empty()) {
          dispatch(msg.source);
        } else if (outstanding > 0) {
          // gpumip-lint: hot-alloc(idle-worker list bounded by the worker count)
          waiting.push_back(msg.source);
        } else {
          comm.send(msg.source, kTagStop, std::span<const std::byte>{});
          ++stopped;
        }
        // Serve newly available work to waiting workers.
        while (!waiting.empty() && !pool.empty()) {
          const int worker = waiting.back();
          waiting.pop_back();
          dispatch(worker);
        }
        // If the pool drained and nothing is outstanding, release waiters.
        if (pool.empty() && outstanding == 0) {
          for (int worker : waiting) {
            comm.send(worker, kTagStop, std::span<const std::byte>{});
            ++stopped;
          }
          waiting.clear();
        }
      }
    } else {
      // ------------- worker -------------
      // Per-worker device residency (ROADMAP item 4): each worker rank
      // owns a Device (and, unless disabled, an arena) threaded through
      // every BnbSolver it runs, so per-node relaxations charge real
      // footprints. One rank = one thread, so no sharing hazard.
      std::optional<gpu::Device> wdevice;
      std::optional<gpu::DeviceArena> warena;
      if (options.model_worker_device) {
        // gpumip-lint: hot-alloc(one Device per worker rank at startup, before any node is received)
        wdevice.emplace();
        // gpumip-lint: hot-alloc(one arena per worker rank; it amortizes per-node allocations away)
        if (options.worker_arena) warena.emplace(*wdevice, "worker.node.lp");
      }
      for (;;) {
        comm.send(0, kTagRequest, std::span<const std::byte>{});
        Message msg = comm.recv(0);
        if (msg.tag == kTagStop) break;
        check_internal(msg.tag == kTagWork, "worker: unexpected tag");
        const WorkItem item = decode_subproblem(msg.payload);
        auditor.delivered(item.track_id, comm.rank());

        mip::ConsistentSnapshot task;
        task.incumbent_objective = item.cutoff;
        // gpumip-lint: hot-alloc(one-node snapshot seeding the worker's solver; one per dispatched subproblem)
        task.frontier.push_back({item.sub.lb, item.sub.ub, item.sub.bound, item.sub.depth});

        mip::MipOptions wopts = options.mip;
        wopts.enable_cuts = false;  // the model is already strengthened
        wopts.max_nodes = options.worker_node_budget;
        wopts.initial_cutoff = item.cutoff;
        wopts.relax_device = wdevice ? &*wdevice : nullptr;
        wopts.relax_arena = warena ? &*warena : nullptr;
        // Span closes after the advance() below, so its simulated duration
        // is the subproblem's compute time — the per-rank "busy" segments
        // the trace analyzer aggregates.
        GPUMIP_TRACE_BEGIN("gpumip.worker.subproblem", item.track_id);
        mip::BnbSolver solver(working_model, wopts);
        mip::MipResult r = solver.solve_from(task);

        WorkerReport report;
        report.track_id = item.track_id;
        report.nodes = r.stats.nodes_evaluated;
        report.busy_seconds = lp::cpu_seconds(r.stats.total_ops) * options.rate_scale;
        comm.advance(report.busy_seconds);
        GPUMIP_TRACE_END("gpumip.worker.subproblem");
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
          mip::ConsistentSnapshot rest = solver.capture_snapshot();
          for (const mip::SnapshotNode& node : rest.frontier) {
            // gpumip-lint: hot-alloc(unfinished frontier rides back to the supervisor in the report payload)
            report.frontier.push_back({node.lb, node.ub, node.bound, node.depth});
          }
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
