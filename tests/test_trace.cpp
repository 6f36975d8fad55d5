// Event-tracing subsystem (obs/trace.hpp): ring-buffer recording semantics,
// rank binding to the simulated clock, cross-rank flow stitching, Perfetto
// JSON export analyzed by the gpumip-report trace engine (exact answers on
// a hand-written trace, non-trivial analysis of a live one), and the headline
// record/replay property — a fuzzed schedule replayed through
// GPUMIP_SCHEDULE_REPLAY yields a bit-identical per-rank simulated timeline
// (check/schedule_check.hpp::check_trace_replay_equality).
//
// Tests call the trace functions directly (not the GPUMIP_TRACE_* macros),
// so they run identically in OBS-on and OBS-off builds; the macro on/off
// contract itself is proven by scripts/check.sh gate 6 (string absence in
// the OFF binary).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "check/schedule_check.hpp"
#include "obs/trace.hpp"
#include "parallel/simmpi.hpp"
#include "parallel/supervisor.hpp"
#include "problems/generators.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gpumip::obs::trace {
namespace {

mip::MipModel test_mip(std::uint64_t seed) {
  Rng rng(seed);
  problems::RandomMipConfig cfg;
  cfg.rows = 9;
  cfg.cols = 15;
  cfg.bound = 4.0;
  return problems::random_mip(cfg, rng);
}

// ---------------- ring semantics ----------------

TEST(TraceRing, OverflowDropsOldestAndCountsExactly) {
  reset();
  constexpr std::uint64_t kExtra = 100;
  for (std::uint64_t i = 0; i < kRingCapacity + kExtra; ++i) {
    instant("gpumip.test.ring", i);
  }
  EXPECT_EQ(dropped(), kExtra);  // one counted loss per overwritten event

  const std::vector<TraceEvent> events = snapshot();
  ASSERT_EQ(events.size(), kRingCapacity);  // retained window is exactly full
  // Overwrite-oldest: the retained window is the LAST kRingCapacity events,
  // in recording order.
  EXPECT_EQ(events.front().arg, kExtra);
  EXPECT_EQ(events.back().arg, kRingCapacity + kExtra - 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_EQ(events[i].arg, events[i - 1].arg + 1);
  }
}

TEST(TraceRing, ResetClearsEventsAndDropCount) {
  reset();
  for (std::uint64_t i = 0; i < kRingCapacity + 5; ++i) instant("gpumip.test.ring", i);
  ASSERT_GT(dropped(), 0u);
  reset();
  EXPECT_EQ(dropped(), 0u);
  EXPECT_TRUE(snapshot().empty());
}

TEST(TraceSpans, NestLifoAndEndRecallsTheOpenName) {
  reset();
  begin("gpumip.test.outer", 7);
  begin("gpumip.test.inner", 8);
  end();  // no name: recalled from the span stack
  end();
  const std::vector<TraceEvent> events = snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kBegin);
  EXPECT_EQ(events[0].name_view(), "gpumip.test.outer");
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].name_view(), "gpumip.test.inner");
  EXPECT_EQ(events[2].kind, EventKind::kEnd);
  EXPECT_EQ(events[2].name_view(), "gpumip.test.inner");  // LIFO
  EXPECT_EQ(events[3].name_view(), "gpumip.test.outer");
}

TEST(TraceSpans, UnbalancedEndIsRecordedNotFatal) {
  reset();
  end();
  const std::vector<TraceEvent> events = snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kEnd);
  EXPECT_EQ(events[0].name_view(), "unbalanced");
}

TEST(TraceEvents, CompleteCarriesLaneAndExplicitInterval) {
  reset();
  complete("gpumip.test.xfer", Lane::kH2D, 1.5, 0.25, 4096);
  const std::vector<TraceEvent> events = snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kComplete);
  EXPECT_EQ(events[0].lane, Lane::kH2D);
  EXPECT_TRUE(events[0].sim_time);  // explicit intervals live on the sim clock
  EXPECT_EQ(events[0].ts, 1.5);
  EXPECT_EQ(events[0].dur, 0.25);
  EXPECT_EQ(events[0].arg, 4096u);
}

TEST(TraceEvents, LongNamesAreTruncatedNotOverrun) {
  reset();
  const std::string longname(3 * TraceEvent::kNameCapacity, 'x');
  instant(longname, 0);
  const std::vector<TraceEvent> events = snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name_view().size(), TraceEvent::kNameCapacity);
}

// ---------------- rank binding & clocks ----------------

TEST(TraceBinding, BoundThreadStampsSimClockUnboundStampsWall) {
  reset();
  ASSERT_EQ(bound_rank(), -1);
  double clock = 2.5;
  {
    const RankBinding binding(3, &clock);
    EXPECT_EQ(bound_rank(), 3);
    instant("gpumip.test.bound", 1);
    clock = 3.75;
    instant("gpumip.test.bound", 2);
  }
  EXPECT_EQ(bound_rank(), -1);
  instant("gpumip.test.unbound", 3);

  const std::vector<TraceEvent> events = snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].sim_time);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_EQ(events[0].ts, 2.5);  // the bound clock, bit-exact
  EXPECT_EQ(events[1].ts, 3.75);
  EXPECT_FALSE(events[2].sim_time);  // binding restored on scope exit
  EXPECT_EQ(events[2].rank, -1);
}

TEST(TraceFlows, KeyIsStableAndSeparatesRunsEndpointsAndSequences) {
  const std::uint64_t base = flow_key(1, 0, 2, 5);
  EXPECT_EQ(flow_key(1, 0, 2, 5), base);  // pure function
  std::set<std::uint64_t> keys{base,
                               flow_key(2, 0, 2, 5),   // another world
                               flow_key(1, 1, 2, 5),   // another source
                               flow_key(1, 0, 3, 5),   // another destination
                               flow_key(1, 0, 2, 6)};  // next message
  EXPECT_EQ(keys.size(), 5u);
}

// ---------------- simmpi integration: flows under fuzzed schedules --------

#ifdef GPUMIP_OBS_ENABLED
// Every send must produce exactly one flow-start and, once received, exactly
// one matching flow-end, whatever delivery order the fuzzer picks. (The
// simmpi instrumentation records through the GPUMIP_TRACE_* macros, so this
// and the following integration tests need the OBS-on build; the unit tests
// above exercise the always-compiled function API directly.)
TEST(TraceFlows, SendRecvPairsMatchUnderFuzzedSchedules) {
  constexpr int kPerSender = 20;
  for (const std::uint64_t seed : {3u, 99991u}) {
    reset();
    parallel::RunOptions options;
    options.schedule.fuzz = true;
    options.schedule.seed = seed;
    // Ranks 0 and 1 flood rank 2, then report "done" to coordinator rank
    // 3, whose "go" releases rank 2's drain only once every flood is queued.
    parallel::run_ranks(
        4,
        [&](parallel::Comm& comm) {
          constexpr int kFlood = 1, kDone = 2, kGo = 3;
          if (comm.rank() < 2) {
            for (int i = 0; i < kPerSender; ++i) comm.send(2, kFlood, {});
            comm.send(3, kDone, {});
          } else if (comm.rank() == 3) {
            comm.recv(-1, kDone);
            comm.recv(-1, kDone);
            comm.send(2, kGo, {});
          } else {
            comm.recv(3, kGo);
            for (int i = 0; i < 2 * kPerSender; ++i) comm.recv();
          }
        },
        options);

    std::map<std::uint64_t, int> starts;
    std::map<std::uint64_t, int> ends;
    for (const TraceEvent& ev : snapshot()) {
      if (ev.kind == EventKind::kFlowStart) {
        EXPECT_EQ(ev.name_view(), "gpumip.simmpi.msg");
        ++starts[ev.flow];
      } else if (ev.kind == EventKind::kFlowEnd) {
        ++ends[ev.flow];
      }
    }
    // One flow per message: the floods, two "done"s and one "go".
    EXPECT_EQ(starts.size(), static_cast<std::size_t>(2 * kPerSender + 3)) << "seed " << seed;
    EXPECT_EQ(starts, ends) << "seed " << seed;  // every arrow has both halves
    for (const auto& [id, count] : starts) {
      EXPECT_EQ(count, 1) << "flow id reused, seed " << seed;
      static_cast<void>(id);
    }
  }
}

// ---------------- export -> analyzer round trip ----------------

// A supervised solve's exported trace must parse as Chrome trace JSON and
// analyze as NON-trivial: >= 10 events on >= 2 ranks, every flow matched,
// a cross-rank critical path, positive makespan, and no negative time in
// any rank's breakdown.
TEST(TraceExport, SupervisedSolveAnalyzesNonTrivially) {
  reset();
  const mip::MipModel m = test_mip(17);
  parallel::SupervisorOptions opts;
  opts.workers = 2;
  opts.worker_node_budget = 10;
  opts.ramp_up_nodes = 8;
  opts.mip.enable_cuts = false;
  const parallel::SupervisorResult r = parallel::solve_supervised(m, opts);
  ASSERT_EQ(r.result.status, mip::MipStatus::Optimal);

  std::string error;
  tracetool::Trace trace;
  ASSERT_TRUE(tracetool::parse_trace(to_json(), trace, error)) << error;
  EXPECT_EQ(trace.sim_pid, 1);

  const tracetool::Report report = tracetool::analyze(trace);
  EXPECT_GE(report.events, 10);
  EXPECT_GE(report.ranks.size(), 3u);  // supervisor + 2 workers
  EXPECT_GT(report.flows_total, 0u);
  EXPECT_EQ(report.flows_matched, report.flows_total);
  EXPECT_FALSE(report.critical_path.empty());
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_NEAR(report.makespan_seconds, r.makespan, 1e-9);
  for (const tracetool::RankBreakdown& rb : report.ranks) {
    EXPECT_GE(rb.busy_seconds, -1e-9) << "rank " << rb.rank;
    EXPECT_GE(rb.blocked_seconds, -1e-9) << "rank " << rb.rank;
    EXPECT_GE(rb.idle_seconds, -1e-9) << "rank " << rb.rank;
  }
}

// ---------------- the headline property: replay equality ----------------

TEST(TraceReplay, FuzzedScheduleReplaysToBitIdenticalSimTimeline) {
  const mip::MipModel m = test_mip(23);
  parallel::SupervisorOptions opts;
  opts.workers = 3;
  opts.worker_node_budget = 10;
  opts.ramp_up_nodes = 10;
  opts.mip.enable_cuts = false;

  parallel::DeliveryTrace schedule;
  opts.schedule.fuzz = true;
  opts.schedule.seed = 42;
  opts.schedule.record = &schedule;
  reset();
  parallel::SupervisorResult first = parallel::solve_supervised(m, opts);
  ASSERT_EQ(first.result.status, mip::MipStatus::Optimal);
  ASSERT_FALSE(schedule.empty());
  const std::vector<TraceEvent> recorded = snapshot();

  opts.schedule.fuzz = false;
  opts.schedule.seed = 0;
  opts.schedule.replay = &schedule;
  opts.schedule.record = nullptr;
  reset();  // rings are reused; isolate the two timelines
  parallel::SupervisorResult second = parallel::solve_supervised(m, opts);
  ASSERT_EQ(second.result.status, mip::MipStatus::Optimal);
  const std::vector<TraceEvent> replayed = snapshot();

  ASSERT_FALSE(recorded.empty());
  EXPECT_NO_THROW(check::check_trace_replay_equality(recorded, replayed));
}

TEST(TraceReplay, EqualityCheckerFlagsDivergentTimelines) {
  const mip::MipModel m = test_mip(23);
  parallel::SupervisorOptions opts;
  opts.workers = 2;
  opts.worker_node_budget = 8;
  opts.ramp_up_nodes = 8;  // force real dispatch: ramp-up alone must not finish
  opts.mip.enable_cuts = false;
  reset();
  parallel::solve_supervised(m, opts);
  const std::vector<TraceEvent> run = snapshot();
  bool any_rank_event = false;
  for (const TraceEvent& ev : run) any_rank_event |= ev.sim_time && ev.rank >= 0;
  ASSERT_TRUE(any_rank_event);

  // Missing ranks.
  EXPECT_THROW(check::check_trace_replay_equality(run, {}), Error);

  // Same ranks, one event's payload off by one.
  std::vector<TraceEvent> tampered = run;
  for (TraceEvent& ev : tampered) {
    if (ev.sim_time && ev.rank >= 0 && ev.name_view() != "gpumip.simmpi.recv.wait") {
      ++ev.arg;
      break;
    }
  }
  EXPECT_THROW(check::check_trace_replay_equality(run, tampered), Error);
}
#endif  // GPUMIP_OBS_ENABLED

// ---------------- analyzer known answers ----------------

// Hand-written two-rank trace with exactly known answers: rank 0 works
// [0,10]us then sends; rank 1 blocks [2,11]us, receives at 11, works to 20
// and sends back; rank 0 receives at 25. One kernel [0,8]us overlaps one
// h2d transfer [4,12]us by 4us. One cut round spans [1,5]us.
constexpr const char* kTwoRankTrace = R"json({
  "traceEvents": [
    {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"simulated time"}},
    {"name":"gpumip.mip.solve","ph":"B","ts":0.0,"pid":1,"tid":4,"args":{"rank":0,"lane":"cpu","arg":0}},
    {"name":"gpumip.mip.cuts.round","ph":"B","ts":1.0,"pid":1,"tid":4,"args":{"rank":0,"lane":"cpu","arg":0}},
    {"name":"gpumip.mip.cuts.round","ph":"E","ts":5.0,"pid":1,"tid":4,"args":{"rank":0,"lane":"cpu","arg":0}},
    {"name":"gpumip.mip.solve","ph":"E","ts":10.0,"pid":1,"tid":4,"args":{"rank":0,"lane":"cpu","arg":0}},
    {"name":"gpumip.simmpi.send","ph":"i","s":"t","ts":10.0,"pid":1,"tid":4,"args":{"rank":0,"lane":"cpu","arg":16}},
    {"name":"gpumip.simmpi.msg","ph":"s","cat":"gpumip.flow","id":"0x1","ts":10.0,"pid":1,"tid":4,"args":{"rank":0,"lane":"cpu","arg":0}},
    {"name":"gpumip.simmpi.msg","ph":"f","bp":"e","cat":"gpumip.flow","id":"0x2","ts":25.0,"pid":1,"tid":4,"args":{"rank":0,"lane":"cpu","arg":0}},
    {"name":"gpumip.simmpi.recv","ph":"i","s":"t","ts":25.0,"pid":1,"tid":4,"args":{"rank":0,"lane":"cpu","arg":16}},
    {"name":"gpumip.simmpi.recv.wait","ph":"B","ts":2.0,"pid":1,"tid":8,"args":{"rank":1,"lane":"cpu","arg":0}},
    {"name":"gpumip.simmpi.msg","ph":"f","bp":"e","cat":"gpumip.flow","id":"0x1","ts":11.0,"pid":1,"tid":8,"args":{"rank":1,"lane":"cpu","arg":0}},
    {"name":"gpumip.simmpi.recv.wait","ph":"E","ts":11.0,"pid":1,"tid":8,"args":{"rank":1,"lane":"cpu","arg":0}},
    {"name":"gpumip.mip.solve","ph":"B","ts":11.0,"pid":1,"tid":8,"args":{"rank":1,"lane":"cpu","arg":0}},
    {"name":"gpumip.mip.solve","ph":"E","ts":20.0,"pid":1,"tid":8,"args":{"rank":1,"lane":"cpu","arg":0}},
    {"name":"gpumip.simmpi.msg","ph":"s","cat":"gpumip.flow","id":"0x2","ts":20.0,"pid":1,"tid":8,"args":{"rank":1,"lane":"cpu","arg":0}},
    {"name":"gpumip.gpu.kernel","ph":"X","ts":0.0,"dur":8.0,"pid":1,"tid":7,"args":{"rank":0,"lane":"kernel","arg":0}},
    {"name":"gpumip.gpu.h2d","ph":"X","ts":4.0,"dur":8.0,"pid":1,"tid":5,"args":{"rank":0,"lane":"h2d","arg":256}}
  ],
  "otherData": {"schema": "gpumip.trace.v1", "dropped": 3}
})json";

TEST(TraceAnalyze, KnownTracesHaveExactAnswers) {
  std::string error;
  tracetool::Trace trace;
  ASSERT_TRUE(tracetool::parse_trace(kTwoRankTrace, trace, error)) << error;
  EXPECT_EQ(trace.dropped, 3u);
  const tracetool::Report report = tracetool::analyze(trace);
  EXPECT_EQ(report.dropped, 3u);
  EXPECT_EQ(report.events, 16);  // metadata events are not counted
  EXPECT_EQ(report.flows_total, 2);
  EXPECT_EQ(report.flows_matched, 2);
  EXPECT_NEAR(report.makespan_seconds, 25e-6, 1e-12);

  // Per-rank breakdown: rank 0 busy 10us then idle until its receive at
  // 25us; rank 1 blocked 9us on the receive, then busy 9us.
  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_EQ(report.ranks[0].rank, 0);
  EXPECT_NEAR(report.ranks[0].busy_seconds, 10e-6, 1e-12);
  EXPECT_NEAR(report.ranks[0].blocked_seconds, 0.0, 1e-12);
  EXPECT_NEAR(report.ranks[0].idle_seconds, 15e-6, 1e-12);
  EXPECT_EQ(report.ranks[1].rank, 1);
  EXPECT_NEAR(report.ranks[1].busy_seconds, 9e-6, 1e-12);
  EXPECT_NEAR(report.ranks[1].blocked_seconds, 9e-6, 1e-12);
  EXPECT_NEAR(report.ranks[1].idle_seconds, 0.0, 1e-12);

  // The critical path chains 0 -> 1 -> 0 and spans the whole run.
  ASSERT_EQ(report.critical_path.size(), 2u);
  EXPECT_EQ(report.critical_path[0].from_rank, 0);
  EXPECT_EQ(report.critical_path[0].to_rank, 1);
  EXPECT_EQ(report.critical_path[1].from_rank, 1);
  EXPECT_EQ(report.critical_path[1].to_rank, 0);
  EXPECT_NEAR(report.critical_start_seconds, 0.0, 1e-12);
  EXPECT_NEAR(report.critical_end_seconds, 25e-6, 1e-12);

  // Device lanes: the h2d transfer overlaps the kernel by 4us.
  ASSERT_EQ(report.devices.size(), 1u);
  EXPECT_EQ(report.devices[0].rank, 0);
  EXPECT_NEAR(report.devices[0].kernel_seconds, 8e-6, 1e-12);
  EXPECT_NEAR(report.devices[0].h2d_seconds, 8e-6, 1e-12);
  EXPECT_NEAR(report.devices[0].d2h_seconds, 0.0, 1e-12);
  EXPECT_NEAR(report.devices[0].overlap_seconds, 4e-6, 1e-12);

  EXPECT_EQ(report.cut_rounds, 1);
  EXPECT_NEAR(report.cut_latency_total_seconds, 4e-6, 1e-12);
  EXPECT_NEAR(report.cut_latency_max_seconds, 4e-6, 1e-12);

  // An empty trace parses and analyzes to an empty report.
  tracetool::Trace empty;
  ASSERT_TRUE(tracetool::parse_trace("{\"traceEvents\": []}", empty, error)) << error;
  const tracetool::Report nothing = tracetool::analyze(empty);
  EXPECT_EQ(nothing.events, 0);
  EXPECT_TRUE(nothing.ranks.empty());
  EXPECT_TRUE(nothing.critical_path.empty());
  EXPECT_EQ(nothing.flows_total, 0);
  EXPECT_EQ(nothing.makespan_seconds, 0.0);
}

// ---------------- export plumbing ----------------

TEST(TraceExport, UnwritablePathThrowsIoError) {
  reset();
  instant("gpumip.test.export", 0);
  try {
    export_json("/nonexistent-gpumip-dir/trace.json");
    FAIL() << "export to an unwritable path did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
  }
}

TEST(TraceExport, ExportIfRequestedHonorsTheEnvironment) {
  reset();
  instant("gpumip.test.export", 1);
  ::unsetenv("GPUMIP_TRACE_OUT");
  EXPECT_EQ(export_if_requested(), "");

  const std::string path = testing::TempDir() + "gpumip_test_trace_out.json";
  ::setenv("GPUMIP_TRACE_OUT", path.c_str(), 1);
  EXPECT_EQ(export_if_requested(), path);
  ::unsetenv("GPUMIP_TRACE_OUT");

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  tracetool::Trace trace;
  EXPECT_TRUE(tracetool::parse_trace(buffer.str(), trace, error)) << error;
  EXPECT_FALSE(trace.events.empty());
}

TEST(TraceExport, MalformedDocumentsAreRejectedByTheAnalyzer) {
  std::string error;
  tracetool::Trace trace;
  EXPECT_FALSE(tracetool::parse_trace("{\"traceEvents\": 7}", trace, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(tracetool::parse_trace("{\"traceEvents\": [", trace, error));
  EXPECT_FALSE(tracetool::parse_trace("", trace, error));
  // A number the reader cannot consume whole is a parse error, not its
  // longest readable prefix; deep nesting is refused before it can
  // exhaust the recursive reader's stack.
  EXPECT_FALSE(tracetool::parse_trace("{\"a\": 1.2.3}", trace, error));
  EXPECT_NE(error.find("bad number"), std::string::npos) << error;
  EXPECT_FALSE(tracetool::parse_trace("[1-2]", trace, error));
  EXPECT_NE(error.find("bad number"), std::string::npos) << error;
  EXPECT_FALSE(tracetool::parse_trace(std::string(1000000, '['), trace, error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  // Integral fields outside their type's range are rejected by name:
  // casting them would be undefined behaviour.
  EXPECT_FALSE(tracetool::parse_trace(
      R"({"traceEvents": [{"name": "x", "ph": "i", "pid": 1e300, "tid": 0}]})", trace, error));
  EXPECT_NE(error.find("traceEvents[0].pid"), std::string::npos) << error;
  EXPECT_FALSE(tracetool::parse_trace(R"({"traceEvents": [], "otherData": {"dropped": -1}})",
                                      trace, error));
  EXPECT_NE(error.find("otherData.dropped"), std::string::npos) << error;
  EXPECT_FALSE(tracetool::parse_trace(
      R"({"traceEvents": [{"name": "x", "ph": "i", "args": {"rank": 3e9}}]})", trace, error));
  EXPECT_NE(error.find("traceEvents[0].args.rank"), std::string::npos) << error;
}

}  // namespace
}  // namespace gpumip::obs::trace
