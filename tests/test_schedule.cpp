// Schedule fuzzing, deadlock diagnosis, and deterministic replay for the
// simmpi parallel core (DESIGN.md, "simmpi concurrency model").
//
// The headline property: the supervisor-worker protocol reaches a
// bit-identical incumbent/bound/point under EVERY legal message-delivery
// order, proven by sweeping >= 32 fuzzer seeds per parallel-strategy
// profile. The rest pins down the machinery itself: the fuzzer stays
// inside the per-source FIFO eligibility rule, the deadlock detector turns
// wedged protocols into abort-with-dump instead of a ctest hang, and a
// recorded trace replays a schedule exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/registry.hpp"
#include "check/schedule_check.hpp"
#include "parallel/simmpi.hpp"
#include "parallel/strategies.hpp"
#include "parallel/supervisor.hpp"
#include "problems/generators.hpp"

namespace gpumip::parallel {
namespace {

using problems::RandomMipConfig;

mip::MipModel test_mip(std::uint64_t seed, int rows = 9, int cols = 15) {
  Rng rng(seed);
  RandomMipConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.bound = 4.0;
  return problems::random_mip(cfg, rng);
}

check::ScheduleOutcome outcome_of(const SupervisorResult& r) {
  check::ScheduleOutcome out;
  out.has_solution = r.result.has_solution;
  out.objective = r.result.objective;
  out.bound = r.result.bound;
  out.x = r.result.x;
  return out;
}

// ---------------- determinism sweeps ----------------

/// Supervisor profile approximating each of the paper's strategies: what
/// changes between S1-S4 from the protocol's point of view is how fast
/// workers turn assignments around (rate_scale), how chatty the exchange is
/// (node budget), and the wire (network) — exactly the knobs that shift
/// which messages race.
struct StrategyProfile {
  Strategy strategy;
  int workers;
  long budget;
  long ramp_up;
  double rate_scale;
  NetworkConfig network;
};

std::array<StrategyProfile, 4> strategy_profiles() {
  NetworkConfig fast;  // default wire
  NetworkConfig slow;
  slow.latency = 5.0e-5;  // slow wire: deliveries pile up and race harder
  slow.bandwidth = 1.0e9;
  return {{
      {Strategy::S1_GpuOnly, 2, 40, 8, 0.25, fast},
      {Strategy::S2_CpuOrchestrated, 3, 10, 10, 1.0, fast},
      {Strategy::S3_Hybrid, 4, 8, 12, 0.5, slow},
      {Strategy::S4_BigMip, 4, 6, 16, 0.75, slow},
  }};
}

TEST(ScheduleSweep, SupervisorDeterministicAcrossSeedsPerStrategy) {
  const mip::MipModel m = test_mip(17);
  mip::MipOptions seq_opts;
  seq_opts.enable_cuts = false;
  const mip::MipResult sequential = mip::BnbSolver(m, seq_opts).solve();
  ASSERT_EQ(sequential.status, mip::MipStatus::Optimal);

  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 32; ++s) seeds.push_back(s * 7919);

  for (const StrategyProfile& profile : strategy_profiles()) {
    SupervisorOptions opts;
    opts.workers = profile.workers;
    opts.worker_node_budget = profile.budget;
    opts.ramp_up_nodes = profile.ramp_up;
    opts.rate_scale = profile.rate_scale;
    opts.network = profile.network;
    opts.mip.enable_cuts = false;

    double swept_objective = 0.0;
    auto run_under = [&](std::uint64_t seed) {
      SupervisorOptions fuzzed = opts;
      fuzzed.schedule.fuzz = true;
      fuzzed.schedule.seed = seed;
      SupervisorResult r = solve_supervised(m, fuzzed);
      EXPECT_EQ(r.result.status, mip::MipStatus::Optimal)
          << strategy_name(profile.strategy) << " seed " << seed;
      swept_objective = r.result.objective;
      return outcome_of(r);
    };
    // Throws naming the two diverging seeds if ANY schedule changes the
    // incumbent, bound, or solution point (bit-identical comparison).
    EXPECT_NO_THROW(check::check_schedule_determinism(run_under, seeds))
        << strategy_name(profile.strategy);
    EXPECT_NEAR(swept_objective, sequential.objective, 1e-6)
        << strategy_name(profile.strategy);
  }
}

TEST(ScheduleSweep, DeterminismCheckerFlagsSeedDependentOutcome) {
  check::reset_counters();
  const std::vector<std::uint64_t> seeds{1, 2, 3};
  auto seed_leaks_into_result = [](std::uint64_t seed) {
    check::ScheduleOutcome out;
    out.has_solution = true;
    out.objective = static_cast<double>(seed % 2);  // schedule-dependent!
    return out;
  };
  EXPECT_THROW(check::check_schedule_determinism(seed_leaks_into_result, seeds), Error);
  EXPECT_EQ(check::checks_failed(check::Subsystem::kSchedule), 1u);
  EXPECT_GE(check::checks_run(check::Subsystem::kSchedule), 1u);
}

// ---------------- fuzzer legality ----------------

// Ranks 0 and 1 flood rank 2, then report "done" to coordinator rank 3;
// once both have reported, rank 3 sends "go" to rank 2, which waits for it
// and then drains every flood wildcard-style. A message is queued when
// send returns, so the whole flood sits in rank 2's queue before its first
// wildcard recv — maximum reordering opportunity. ("done" goes to the
// coordinator, not the receiver: a tag-filtered recv taking a sender's
// "done" ahead of its floods would break per-source FIFO.)
constexpr int kFloodRanks = 4;
constexpr int kFlood = 1;
constexpr int kDone = 2;
constexpr int kGo = 3;

void flood_then_drain(Comm& comm, int per_sender, const std::function<void(Message&)>& drain) {
  constexpr int kReceiver = 2;
  constexpr int kCoordinator = 3;
  if (comm.rank() < kReceiver) {
    for (int i = 0; i < per_sender; ++i) {
      ByteWriter w;
      w.write<int>(i);
      comm.send(kReceiver, kFlood, std::move(w).take());
    }
    comm.send(kCoordinator, kDone, {});
  } else if (comm.rank() == kCoordinator) {
    comm.recv(-1, kDone);
    comm.recv(-1, kDone);
    comm.send(kReceiver, kGo, {});
  } else {
    comm.recv(kCoordinator, kGo);  // every flood is queued by now
    for (int i = 0; i < 2 * per_sender; ++i) {
      Message msg = comm.recv();
      drain(msg);
    }
  }
}

// Whatever order the fuzzer picks, per-source FIFO must survive.
TEST(ScheduleFuzz, ReorderingPreservesPerSourceFifo) {
  constexpr int kPerSender = 25;
  for (std::uint64_t seed : {3u, 1234u, 99991u}) {
    DeliveryTrace trace;
    RunOptions options;
    options.schedule.fuzz = true;
    options.schedule.seed = seed;
    options.schedule.record = &trace;
    std::vector<std::pair<int, int>> received;  // (source, payload) in order
    run_ranks(
        kFloodRanks,
        [&](Comm& comm) {
          flood_then_drain(comm, kPerSender, [&](Message& msg) {
            ByteReader r(msg.payload);
            received.emplace_back(msg.source, r.read<int>());
          });
        },
        options);
    ASSERT_EQ(received.size(), static_cast<std::size_t>(2 * kPerSender)) << "seed " << seed;
    std::map<int, int> last;  // source -> last payload seen
    for (const auto& [source, value] : received) {
      auto [it, first] = last.try_emplace(source, value);
      if (!first) {
        EXPECT_GT(value, it->second) << "per-source FIFO violated, seed " << seed;
        it->second = value;
      }
    }
    // The recorded trace holds every delivery (floods, two "done"s, one
    // "go") and passes the structural validator (Lamport monotonicity +
    // strictly increasing per-source seq).
    EXPECT_EQ(trace.size(), static_cast<std::size_t>(2 * kPerSender + 3));
    EXPECT_NO_THROW(check::check_delivery_trace(trace, kFloodRanks)) << "seed " << seed;
  }
}

TEST(ScheduleFuzz, DistinctSeedsExploreDistinctOrders) {
  constexpr int kPerSender = 12;
  std::set<std::string> patterns;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RunOptions options;
    options.schedule.fuzz = true;
    options.schedule.seed = seed;
    std::string pattern;  // receiver's source sequence, e.g. "010011..."
    run_ranks(
        kFloodRanks,
        [&](Comm& comm) {
          flood_then_drain(comm, kPerSender, [&](Message& msg) {
            pattern.push_back(static_cast<char>('0' + msg.source));
          });
        },
        options);
    patterns.insert(pattern);
  }
  // The whole point of the sweep: different seeds produce different legal
  // delivery orders (a single interleaving would test nothing).
  EXPECT_GE(patterns.size(), 2u);
}

// ---------------- deadlock diagnosis ----------------

TEST(ScheduleDeadlock, CrossRecvCycleAbortsWithDump) {
  RunReport report;
  RunOptions options;
  options.report_out = &report;
  try {
    run_ranks(
        2,
        [](Comm& comm) {
          comm.recv(1 - comm.rank(), 5);  // each waits for the other: classic cycle
        },
        options);
    FAIL() << "wedged protocol did not abort";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("[STUCK]"), std::string::npos) << what;
  }
  EXPECT_TRUE(report.deadlock_detected);
  EXPECT_EQ(report.failed_ranks, 0);  // nobody failed; the protocol wedged
}

TEST(ScheduleDeadlock, WaitOnExitedRankIsDetected) {
  EXPECT_THROW(run_ranks(2,
                         [](Comm& comm) {
                           if (comm.rank() == 0) comm.recv(1, 0);  // rank 1 just leaves
                         }),
               Error);
}

// A wedged request/reply: the worker's SECOND request is queued at the
// supervisor, but the supervisor filters on the wrong tag. The dump must
// show the mailbox contents — that is the diagnosis (message present,
// filter wrong). One request IS delivered first, so a failure trace
// exists (GPUMIP_SCHEDULE_TRACE captures it; see scripts/check.sh).
TEST(ScheduleDeadlock, DumpShowsQueuedMessagesAndBlockedSites) {
  try {
    run_ranks(2, [](Comm& comm) {
      if (comm.rank() == 0) {
        comm.recv(1, 1);  // first request handled fine...
        comm.recv(1, 3);  // ...wrong tag: the queued tag-1 request never matches
      } else {
        comm.send(0, 1, {});
        comm.send(0, 1, {});
        comm.recv(0, 2);  // waits forever for the reply
      }
    });
    FAIL() << "wedged request/reply did not abort";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blocked in recv(source=1, tag=3)"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked in recv(source=0, tag=2)"), std::string::npos) << what;
    EXPECT_NE(what.find("from 1 tag 1 seq 2"), std::string::npos) << what;
  }
}

TEST(ScheduleDeadlock, FuzzedSweepNeverFalselyFiresOnHealthyProtocol) {
  // Request/replies that DO complete, under heavy fuzzing: the conservative
  // detector must stay silent for every seed.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RunReport report;
    RunOptions options;
    options.schedule.fuzz = true;
    options.schedule.seed = seed;
    options.report_out = &report;
    run_ranks(
        3,
        [](Comm& comm) {
          if (comm.rank() == 0) {
            for (int round = 0; round < 8; ++round) {
              Message req = comm.recv(-1, 1);
              comm.send(req.source, 2, {});
            }
          } else {
            for (int round = 0; round < 4; ++round) {
              comm.send(0, 1, {});
              comm.recv(0, 2);
            }
          }
        },
        options);
    EXPECT_FALSE(report.deadlock_detected) << "seed " << seed;
  }
}

// ---------------- abnormal-exit accounting (satellite: truthful stats) -----

TEST(AbnormalExit, ReportCountsOnlyTheFailedRankAndUndelivered) {
  RunReport report;
  RunOptions options;
  options.report_out = &report;
  EXPECT_THROW(run_ranks(
                   2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       for (int i = 0; i < 3; ++i) comm.send(1, 1, {});
                       throw Error(ErrorCode::kInternal, "deliberate failure");
                     }
                     comm.recv(0, 99);  // never matches; unwound by the abort
                   },
                   options),
               Error);
  EXPECT_EQ(report.failed_ranks, 1);  // rank 1 was unwound, not failed
  EXPECT_FALSE(report.deadlock_detected);
  EXPECT_EQ(report.network.messages, 3u);
  EXPECT_EQ(report.network.undelivered, 3u);
  ASSERT_EQ(report.rank_clocks.size(), 2u);
}

// ---------------- trace record / replay ----------------

TEST(ScheduleTrace, SerializationRoundTripsExactly) {
  DeliveryTrace trace;
  trace.deliveries = {
      {0, 1, 7, 1, 0.0},
      {1, 0, 2, 1, 1.0e-6},
      {0, 1, 7, 2, 0x1.fffffffffffffp-1},  // full-precision clock survives
  };
  const DeliveryTrace back = deserialize_trace(serialize_trace(trace));
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back.deliveries[i].rank, trace.deliveries[i].rank);
    EXPECT_EQ(back.deliveries[i].source, trace.deliveries[i].source);
    EXPECT_EQ(back.deliveries[i].tag, trace.deliveries[i].tag);
    EXPECT_EQ(back.deliveries[i].seq, trace.deliveries[i].seq);
    EXPECT_EQ(back.deliveries[i].clock, trace.deliveries[i].clock);  // bitwise
  }
  const std::string path = testing::TempDir() + "gpumip_trace_roundtrip.txt";
  save_trace(trace, path);
  EXPECT_EQ(load_trace(path).size(), trace.size());
  EXPECT_THROW(deserialize_trace("not a trace"), Error);
  EXPECT_THROW(deserialize_trace("gpumip-delivery-trace v1 2\n0 1 7 1 0x0p+0\n"), Error);
  EXPECT_THROW(load_trace(path + ".does-not-exist"), Error);
}

std::vector<std::vector<std::uint64_t>> per_rank_source_seq(const DeliveryTrace& trace, int n) {
  std::vector<std::vector<std::uint64_t>> seqs(static_cast<std::size_t>(n));
  for (const DeliveryRecord& record : trace.deliveries) {
    seqs[static_cast<std::size_t>(record.rank)].push_back(
        (static_cast<std::uint64_t>(record.source) << 32) | record.seq);
  }
  return seqs;
}

TEST(ScheduleReplay, ReproducesARecordedSupervisorSchedule) {
  const mip::MipModel m = test_mip(23);
  SupervisorOptions opts;
  opts.workers = 3;
  opts.worker_node_budget = 10;
  opts.ramp_up_nodes = 10;
  opts.mip.enable_cuts = false;

  DeliveryTrace recorded;
  opts.schedule.fuzz = true;
  opts.schedule.seed = 42;
  opts.schedule.record = &recorded;
  SupervisorResult first = solve_supervised(m, opts);
  ASSERT_EQ(first.result.status, mip::MipStatus::Optimal);
  ASSERT_FALSE(recorded.empty());

  DeliveryTrace replayed;
  opts.schedule.fuzz = false;
  opts.schedule.seed = 0;
  opts.schedule.replay = &recorded;
  opts.schedule.record = &replayed;
  SupervisorResult second = solve_supervised(m, opts);
  ASSERT_EQ(second.result.status, mip::MipStatus::Optimal);

  // Exact reproduction: every rank consumed the same messages in the same
  // order (the global interleaving of the log may differ; each rank's
  // subsequence is what determines the execution).
  const int n = opts.workers + 1;
  EXPECT_EQ(per_rank_source_seq(replayed, n), per_rank_source_seq(recorded, n));
  EXPECT_EQ(outcome_of(second), outcome_of(first));
}

TEST(ScheduleReplay, DivergentProtocolIsRejectedNotMisreplayed) {
  // Record a run where rank 1 consumes (tag 1, then tag 2)...
  DeliveryTrace recorded;
  RunOptions record_options;
  record_options.schedule.record = &recorded;
  run_ranks(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 1, {});
          comm.send(1, 2, {});
        } else {
          comm.recv(0, 1);
          comm.recv(0, 2);
        }
      },
      record_options);
  ASSERT_EQ(recorded.size(), 2u);

  // ...then replay it against a body that asks for tag 2 FIRST. The replay
  // cursor points at the tag-1 message; honoring the filter would diverge
  // from the recorded schedule, so the run must abort, not improvise.
  RunOptions replay_options;
  replay_options.schedule.replay = &recorded;
  try {
    run_ranks(
        2,
        [](Comm& comm) {
          if (comm.rank() == 0) {
            comm.send(1, 1, {});
            comm.send(1, 2, {});
          } else {
            comm.recv(0, 2);
            comm.recv(0, 1);
          }
        },
        replay_options);
    FAIL() << "divergent replay was not rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("replay diverged"), std::string::npos) << e.what();
  }
}

// ---------------- delivery-trace validator negatives ----------------

TEST(ScheduleTraceValidator, FlagsClockRegressionFifoViolationAndMalformedRecords) {
  check::reset_counters();
  DeliveryTrace ok;
  ok.deliveries = {{1, 0, 1, 1, 1.0}, {1, 0, 1, 2, 2.0}};
  EXPECT_NO_THROW(check::check_delivery_trace(ok, 2));

  DeliveryTrace clock_regress = ok;
  clock_regress.deliveries[1].clock = 0.5;  // receiver's clock went backwards
  EXPECT_THROW(check::check_delivery_trace(clock_regress, 2), Error);

  DeliveryTrace fifo_violation = ok;
  fifo_violation.deliveries[0].seq = 2;  // seq 2 delivered before seq 1
  fifo_violation.deliveries[1].seq = 1;
  fifo_violation.deliveries[1].clock = 2.0;
  EXPECT_THROW(check::check_delivery_trace(fifo_violation, 2), Error);

  DeliveryTrace zero_seq = ok;
  zero_seq.deliveries[0].seq = 0;
  EXPECT_THROW(check::check_delivery_trace(zero_seq, 2), Error);

  DeliveryTrace out_of_range = ok;
  out_of_range.deliveries[0].rank = 5;
  EXPECT_THROW(check::check_delivery_trace(out_of_range, 2), Error);

  EXPECT_EQ(check::checks_failed(check::Subsystem::kSchedule), 4u);
}

}  // namespace
}  // namespace gpumip::parallel
