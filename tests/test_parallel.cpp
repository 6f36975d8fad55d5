#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>

#include "gpu/device.hpp"
#include "lp/op_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/simmpi.hpp"
#include "parallel/strategies.hpp"
#include "parallel/supervisor.hpp"
#include "problems/generators.hpp"

namespace gpumip::parallel {
namespace {

using problems::RandomMipConfig;

TEST(SimMpi, PingPong) {
  RunReport report = run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      ByteWriter w;
      w.write<int>(42);
      comm.send(1, 7, std::move(w).take());
      Message reply = comm.recv(1, 8);
      ByteReader r(reply.payload);
      EXPECT_EQ(r.read<int>(), 43);
    } else {
      Message msg = comm.recv(0, 7);
      ByteReader r(msg.payload);
      ByteWriter w;
      w.write<int>(r.read<int>() + 1);
      comm.send(0, 8, std::move(w).take());
    }
  });
  EXPECT_EQ(report.network.messages, 2u);
  EXPECT_GT(report.makespan, 0.0);  // two wire latencies at least
}

TEST(SimMpi, MoveSendDeliversIdenticalPayload) {
  // The moved buffer arrives byte for byte, a `{}` control send arrives
  // empty, and the traffic accounting counts exactly the wire bytes.
  std::vector<std::byte> expected(64);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = static_cast<std::byte>(i);
  RunReport report = run_ranks(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<std::byte>(expected));
      comm.send(1, 3, {});
    } else {
      const Message moved = comm.recv(0, 1);
      const Message empty = comm.recv(0, 3);
      EXPECT_EQ(moved.payload, expected);
      EXPECT_TRUE(empty.payload.empty());
    }
  });
  EXPECT_EQ(report.network.messages, 2u);
  EXPECT_EQ(report.network.bytes, 64u);
}

TEST(SimMpi, MessageClocksPropagate) {
  // Receiver's clock must jump to at least sender's clock + wire time.
  RunReport report = run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.advance(1.0);  // sender does 1s of work first
      comm.send(1, 0, {});
    } else {
      comm.recv(0, 0);
      EXPECT_GE(comm.now(), 1.0);
    }
  });
  EXPECT_GE(report.makespan, 1.0);
}

TEST(SimMpi, TaggedAndWildcardReceive) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, {});
      comm.send(1, 6, {});
    } else {
      // Receive out of order by tag.
      Message m6 = comm.recv(0, 6);
      EXPECT_EQ(m6.tag, 6);
      Message any = comm.recv();
      EXPECT_EQ(any.tag, 5);
    }
  });
}

TEST(SimMpi, RankExceptionPropagates) {
  EXPECT_THROW(run_ranks(2,
                         [](Comm& comm) {
                           if (comm.rank() == 1) {
                             throw Error(ErrorCode::kInternal, "worker crash");
                           }
                         }),
               Error);
}

TEST(SimMpi, SerializationRoundTrip) {
  ByteWriter w;
  w.write<double>(3.25);
  w.write_doubles(std::vector<double>{1, 2, 3});
  w.write_ints(std::vector<int>{7, 8});
  const std::vector<std::byte> bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read_doubles(), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(r.read_ints(), (std::vector<int>{7, 8}));
  EXPECT_TRUE(r.exhausted());
  ByteReader bad(bytes);
  bad.read<double>();
  bad.read_doubles();
  bad.read_ints();
  EXPECT_THROW(bad.read<double>(), Error);
}

namespace {

// A representative wire payload: the same field mix the supervisor's
// subproblem/report messages use (scalars + counted arrays).
std::vector<std::byte> fuzz_payload() {
  ByteWriter w;
  w.write<std::uint64_t>(42);
  w.write<double>(-1.5);
  w.write<int>(7);
  w.write_doubles(std::vector<double>{0.5, 1.5, 2.5});
  w.write_ints(std::vector<int>{3, 1, 4, 1, 5});
  return std::move(w).take();
}

// Decodes the fuzz_payload field sequence and enforces full consumption,
// mirroring how decode_subproblem/decode_report end with check_protocol.
void decode_all(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  (void)r.read<std::uint64_t>();
  (void)r.read<double>();
  (void)r.read<int>();
  (void)r.read_doubles();
  (void)r.read_ints();
  check_protocol(r.exhausted(), "decode_all: trailing bytes after payload");
}

}  // namespace

TEST(SimMpi, TruncatedPayloadRaisesProtocolError) {
  // Every strict prefix of a valid payload must fail decoding with the
  // typed wire error -- never an unchecked read past the buffer.
  const std::vector<std::byte> bytes = fuzz_payload();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      decode_all(std::span<const std::byte>(bytes.data(), len));
      FAIL() << "decode succeeded on a " << len << "-byte prefix of "
             << bytes.size() << " bytes";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocolError) << "prefix length " << len;
    }
  }
}

TEST(SimMpi, OverlongPayloadRaisesProtocolError) {
  // Trailing garbage after a well-formed payload must trip the
  // exhausted() check, not be silently ignored (version-skew detector).
  std::vector<std::byte> bytes = fuzz_payload();
  bytes.push_back(std::byte{0xAB});
  try {
    decode_all(bytes);
    FAIL() << "decode accepted trailing bytes";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocolError);
  }
}

TEST(SimMpi, CorruptCountHeaderRaisesProtocolError) {
  // A count header of 2^61 makes `count * sizeof(double)` wrap to 8 in
  // u64 arithmetic; the overflow-safe bound check must still reject it
  // with the typed error instead of attempting a huge allocation.
  ByteWriter w;
  w.write<std::uint64_t>((std::uint64_t{1} << 61) + 1);
  w.write<double>(0.0);
  const std::vector<std::byte> bytes = std::move(w).take();
  ByteReader r(bytes);
  try {
    (void)r.read_doubles();
    FAIL() << "read_doubles accepted an impossible count header";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocolError);
  }

  ByteWriter wi;
  wi.write<std::uint64_t>((std::uint64_t{1} << 62) + 3);
  wi.write<int>(0);
  const std::vector<std::byte> ibytes = std::move(wi).take();
  ByteReader ri(ibytes);
  try {
    (void)ri.read_ints();
    FAIL() << "read_ints accepted an impossible count header";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocolError);
  }
}

TEST(SimMpi, MutationFuzzOnlyRaisesTypedErrors) {
  // Seeded byte-flip fuzzing: whatever a corrupted payload decodes to,
  // the only acceptable failure mode is the typed protocol error. Any
  // other exception (std::length_error from a wild vector size, ASan
  // aborts from reads past the span) is a decoder bug.
  const std::vector<std::byte> original = fuzz_payload();
  Rng rng(0xFACEu);
  int typed_failures = 0;
  for (int trial = 0; trial < 512; ++trial) {
    std::vector<std::byte> bytes = original;
    const int flips = 1 + static_cast<int>(rng.index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.index(bytes.size());
      bytes[at] = static_cast<std::byte>(rng.index(256));
    }
    try {
      decode_all(bytes);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocolError) << "trial " << trial;
      ++typed_failures;
    }
  }
  // The count headers are easy to corrupt, so a healthy fraction of
  // trials must have exercised the failure path.
  EXPECT_GT(typed_failures, 0);
}

/// A frontier node as the supervisor ships it: bounds with infinities and
/// a basis that uses every status.
mip::SnapshotNode shipped_node() {
  mip::SnapshotNode node;
  node.lb = {0.0, -std::numeric_limits<double>::infinity(), 1.0, 0.0, 2.5};
  node.ub = {4.0, std::numeric_limits<double>::infinity(), 1.0, 3.0, 2.5};
  node.bound = -17.25;
  node.depth = 6;
  node.basis.basic = {4, 0};
  node.basis.status = {lp::VarStatus::Basic, lp::VarStatus::Free, lp::VarStatus::AtUpper,
                       lp::VarStatus::AtLower, lp::VarStatus::Basic};
  return node;
}

TEST(SimMpi, SubproblemRoundTripIsExact) {
  const mip::SnapshotNode node = shipped_node();
  const WorkItem item = decode_subproblem(encode_subproblem(node, -3.5, 99));
  EXPECT_EQ(item.track_id, 99u);
  EXPECT_EQ(item.cutoff, -3.5);
  EXPECT_EQ(item.node.lb, node.lb);
  EXPECT_EQ(item.node.ub, node.ub);
  EXPECT_EQ(item.node.bound, node.bound);
  EXPECT_EQ(item.node.depth, node.depth);
  EXPECT_EQ(item.node.basis, node.basis);

  mip::SnapshotNode cold = node;  // a checkpoint-file node: no basis
  cold.basis = {};
  EXPECT_TRUE(decode_subproblem(encode_subproblem(cold, 1e300, 1)).node.basis.empty());
}

TEST(SimMpi, StatusByteOutOfRangeRaisesProtocolError) {
  // The last byte of a subproblem payload is its last basis status.
  std::vector<std::byte> bytes = encode_subproblem(shipped_node(), 0.0, 7);
  bytes.back() = std::byte{4};
  try {
    (void)decode_subproblem(bytes);
    FAIL() << "status byte 4 accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocolError);
  }
}

TEST(SimMpi, SubproblemMutationFuzzOnlyRaisesTypedErrors) {
  // The real subproblem decoder under seeded corruption of a payload that
  // carries a basis: a decode either succeeds with in-range statuses or
  // raises the typed protocol error.
  const std::vector<std::byte> original = encode_subproblem(shipped_node(), -1.0, 42);
  Rng rng(0xBA515u);
  int typed_failures = 0;
  for (int trial = 0; trial < 512; ++trial) {
    std::vector<std::byte> bytes = original;
    const int flips = 1 + static_cast<int>(rng.index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.index(bytes.size());
      bytes[at] = static_cast<std::byte>(rng.index(256));
    }
    try {
      const WorkItem item = decode_subproblem(bytes);
      for (lp::VarStatus st : item.node.basis.status) {
        EXPECT_LE(static_cast<int>(st), static_cast<int>(lp::VarStatus::Free)) << "trial " << trial;
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocolError) << "trial " << trial;
      ++typed_failures;
    }
  }
  EXPECT_GT(typed_failures, 0);
}

// ---------------- supervisor-worker ----------------

mip::MipModel test_mip(std::uint64_t seed, int rows = 10, int cols = 18) {
  Rng rng(seed);
  RandomMipConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.bound = 4.0;
  return problems::random_mip(cfg, rng);
}

TEST(Supervisor, MatchesSequentialOptimum) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    mip::MipModel m = test_mip(seed);
    mip::MipOptions seq_opts;
    seq_opts.enable_cuts = false;
    mip::MipResult sequential = mip::BnbSolver(m, seq_opts).solve();
    ASSERT_EQ(sequential.status, mip::MipStatus::Optimal);

    SupervisorOptions opts;
    opts.workers = 3;
    opts.worker_node_budget = 30;
    opts.ramp_up_nodes = 10;
    opts.mip.enable_cuts = false;
    SupervisorResult parallel = solve_supervised(m, opts);
    ASSERT_EQ(parallel.result.status, mip::MipStatus::Optimal) << "seed " << seed;
    EXPECT_NEAR(parallel.result.objective, sequential.objective, 1e-6) << "seed " << seed;
  }
}

TEST(Supervisor, MatchesEnumeration) {
  // Every worker node is a resumed subproblem root or one of its
  // descendants; with a budget of 1 almost every node is shipped on its
  // own, so the resumed nodes' heuristics and dives decide the incumbent.
  for (std::uint64_t seed : {1u, 2u, 3u, 6u}) {
    Rng rng(500 + seed);
    RandomMipConfig cfg;
    cfg.rows = 6;
    cfg.cols = 9;
    cfg.density = 0.5;
    cfg.integer_fraction = 0.8;
    cfg.bound = 3.0;
    const mip::MipModel m = problems::random_mip(cfg, rng);
    const mip::MipResult exact = mip::solve_by_enumeration(m);
    ASSERT_EQ(exact.status, mip::MipStatus::Optimal) << "seed " << seed;

    for (long budget : {1L, 4L, 15L}) {
      SupervisorOptions opts;
      opts.workers = 3;
      opts.worker_node_budget = budget;
      opts.ramp_up_nodes = 2;
      opts.mip.enable_cuts = false;
      const SupervisorResult r = solve_supervised(m, opts);
      const std::string label = "seed " + std::to_string(seed) + " budget " + std::to_string(budget);
      ASSERT_EQ(r.result.status, mip::MipStatus::Optimal) << label;
      EXPECT_GT(r.subproblems_dispatched, 0) << label << ": fixture never reached the workers";
      EXPECT_NEAR(r.result.objective, exact.objective, 1e-6) << label;
      EXPECT_TRUE(m.is_integral(r.result.x)) << label;
      EXPECT_TRUE(m.is_feasible(r.result.x)) << label;
    }
  }
}

TEST(Supervisor, SolvedEntirelyInRampUp) {
  mip::MipModel m = test_mip(44, 5, 6);
  SupervisorOptions opts;
  opts.workers = 2;
  opts.ramp_up_nodes = 100000;  // ramp-up alone finishes the search
  opts.mip.enable_cuts = false;
  SupervisorResult r = solve_supervised(m, opts);
  EXPECT_EQ(r.result.status, mip::MipStatus::Optimal);
  EXPECT_EQ(r.subproblems_dispatched, 0);
}

TEST(Supervisor, LoadIsDistributed) {
  mip::MipModel m = test_mip(55, 14, 26);
  SupervisorOptions opts;
  opts.workers = 4;
  opts.worker_node_budget = 8;  // force many round trips
  opts.ramp_up_nodes = 12;
  opts.mip.enable_cuts = false;
  SupervisorResult r = solve_supervised(m, opts);
  ASSERT_EQ(r.result.status, mip::MipStatus::Optimal);
  int busy_workers = 0;
  for (long nodes : r.worker_nodes) busy_workers += nodes > 0 ? 1 : 0;
  EXPECT_GE(busy_workers, 2) << "work never spread beyond one worker";
  EXPECT_GT(r.network.messages, 8u);
}

TEST(Supervisor, CheckpointAndResume) {
  mip::MipModel m = test_mip(66, 12, 22);
  mip::MipOptions seq_opts;
  seq_opts.enable_cuts = false;
  mip::MipResult sequential = mip::BnbSolver(m, seq_opts).solve();

  std::vector<mip::ConsistentSnapshot> checkpoints;
  SupervisorOptions opts;
  opts.workers = 3;
  opts.worker_node_budget = 10;
  opts.ramp_up_nodes = 8;
  opts.mip.enable_cuts = false;
  opts.checkpoint_interval = 2;
  opts.on_checkpoint = [&](const mip::ConsistentSnapshot& snap) { checkpoints.push_back(snap); };
  SupervisorResult first = solve_supervised(m, opts);
  ASSERT_EQ(first.result.status, mip::MipStatus::Optimal);

  if (!checkpoints.empty()) {
    // Resume from an early checkpoint; same optimum must come out.
    SupervisorOptions resume_opts = opts;
    resume_opts.checkpoint_interval = 0;
    SupervisorResult resumed = resume_supervised(m, checkpoints.front(), resume_opts);
    if (resumed.result.has_solution) {
      EXPECT_NEAR(resumed.result.objective, sequential.objective, 1e-6);
    } else {
      // The checkpoint's incumbent was already optimal; the resumed run
      // only proves no better solution exists.
      EXPECT_TRUE(checkpoints.front().has_incumbent());
    }
  }
}

TEST(Supervisor, MoreWorkersNoWorseMakespan) {
  mip::MipModel m = test_mip(77, 14, 24);
  auto run_with = [&](int workers) {
    SupervisorOptions opts;
    opts.workers = workers;
    opts.worker_node_budget = 6;
    opts.ramp_up_nodes = 16;
    opts.mip.enable_cuts = false;
    return solve_supervised(m, opts);
  };
  SupervisorResult one = run_with(1);
  SupervisorResult four = run_with(4);
  ASSERT_EQ(one.result.status, mip::MipStatus::Optimal);
  ASSERT_EQ(four.result.status, mip::MipStatus::Optimal);
  EXPECT_NEAR(one.result.objective, four.result.objective, 1e-6);
  // Parallelism should help (generous 20% slack: dispatch order differs).
  EXPECT_LT(four.makespan, one.makespan * 1.2);
}

TEST(Supervisor, ResumeRejectsSnapshotOutsideTheModel) {
  Rng rng(5);
  const mip::MipModel m = problems::knapsack(8, rng);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  mip::ConsistentSnapshot snap;
  snap.frontier.push_back({form.lb, form.ub, -1e300, 0});
  for (int j = 0; j < form.num_struct; ++j) snap.frontier[0].ub[static_cast<std::size_t>(j)] += 3.0;
  snap = mip::ConsistentSnapshot::from_string(snap.to_string());

  SupervisorOptions opts;
  opts.workers = 2;
  opts.mip.enable_cuts = false;
  try {
    (void)resume_supervised(m, snap, opts);
    ADD_FAILURE() << "snapshot accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

TEST(Supervisor, ShippedFrontierCarriesBases) {
  // Ramp-up nodes and the frontiers workers send back both travel with
  // their parent's basis, so the supervisor's pool (seen through its
  // checkpoints) holds warm-startable nodes only. One worker: nothing is
  // in flight after each result, so every result emits a checkpoint.
  mip::MipModel m = test_mip(66, 12, 22);
  std::vector<mip::ConsistentSnapshot> checkpoints;
  SupervisorOptions opts;
  opts.workers = 1;
  opts.worker_node_budget = 4;
  opts.ramp_up_nodes = 8;
  opts.mip.enable_cuts = false;
  opts.checkpoint_interval = 1;
  opts.on_checkpoint = [&](const mip::ConsistentSnapshot& snap) { checkpoints.push_back(snap); };
  SupervisorResult r = solve_supervised(m, opts);
  ASSERT_EQ(r.result.status, mip::MipStatus::Optimal);

  const lp::StandardForm form = lp::build_standard_form(m.lp());
  std::size_t nodes = 0;
  for (const mip::ConsistentSnapshot& snap : checkpoints) {
    for (const mip::SnapshotNode& node : snap.frontier) {
      EXPECT_EQ(lp::basis_fault(node.basis, form.num_rows, form.num_vars), nullptr);
      ++nodes;
    }
  }
  EXPECT_GT(nodes, 0u) << "no checkpoint saw a queued node";
}

// ---------------- strategies ----------------

constexpr Strategy kAllStrategies[] = {Strategy::S1_GpuOnly, Strategy::S2_CpuOrchestrated,
                                       Strategy::S3_Hybrid, Strategy::S4_BigMip};

TEST(Strategies, AllFourReachTheSameOptimum) {
  // One search, priced four times: the optimum is the search's, so every
  // strategy reports it by construction; each replay must still complete.
  mip::MipModel m = test_mip(88, 10, 16);
  StrategyConfig cfg;
  cfg.mip.enable_cuts = false;
  mip::BnbSolver searched(m, cfg.mip);
  ASSERT_EQ(searched.solve().status, mip::MipStatus::Optimal);
  for (Strategy s : kAllStrategies) {
    const StrategyReport r = replay_strategy(s, searched, cfg);
    EXPECT_TRUE(r.completed) << strategy_name(s) << ": " << r.failure;
    EXPECT_GT(r.sim_seconds, 0.0) << strategy_name(s);
  }
}

TEST(Strategies, ReplayIsAPureFunctionOfOneSearch) {
  // Pricing reads the finished search and nothing else: replaying it twice
  // gives the same report, field for field, and S2's replay is exactly what
  // run_strategy reports for the same model.
  const mip::MipModel m = test_mip(1, 16, 28);
  StrategyConfig cfg;
  cfg.devices = 4;
  mip::BnbSolver searched(m, cfg.mip);
  static_cast<void>(searched.solve());
  for (Strategy s : kAllStrategies) {
    const StrategyReport a = replay_strategy(s, searched, cfg);
    const StrategyReport b = replay_strategy(s, searched, cfg);
    EXPECT_EQ(a.strategy, s);
    EXPECT_EQ(a.completed, b.completed) << strategy_name(s);
    EXPECT_EQ(a.failure, b.failure) << strategy_name(s);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << strategy_name(s);
    EXPECT_EQ(a.device_seconds, b.device_seconds) << strategy_name(s);
    EXPECT_EQ(a.host_seconds, b.host_seconds) << strategy_name(s);
    EXPECT_EQ(a.network_seconds, b.network_seconds) << strategy_name(s);
    EXPECT_EQ(a.bytes_h2d, b.bytes_h2d) << strategy_name(s);
    EXPECT_EQ(a.bytes_d2h, b.bytes_d2h) << strategy_name(s);
    EXPECT_EQ(a.transfers, b.transfers) << strategy_name(s);
    EXPECT_EQ(a.device_peak_bytes, b.device_peak_bytes) << strategy_name(s);
  }
  const StrategyReport replayed = replay_strategy(Strategy::S2_CpuOrchestrated, searched, cfg);
  const StrategyReport run = run_strategy(Strategy::S2_CpuOrchestrated, m, cfg);
  EXPECT_EQ(replayed.sim_seconds, run.sim_seconds);
  EXPECT_EQ(replayed.transfers, run.transfers);
  EXPECT_EQ(replayed.bytes_h2d, run.bytes_h2d);
  EXPECT_EQ(replayed.bytes_d2h, run.bytes_d2h);
}

TEST(Strategies, SeededBnbTreeReplayIsBitExact) {
  // A host-only speedup must leave the search and every simulated second
  // unchanged, bit for bit. Re-recorded when children began inheriting
  // their parent's B⁻¹: refactorizations fell from 656 and 33 to what the
  // host now runs, and a non-hot inherited node is charged one device
  // refactorization instead (seed 1's sim_seconds was 0x1.722c6c83838cdp-4;
  // seed 2's did not move).
  struct Golden {
    std::uint64_t seed;
    long nodes;
    long refactor;
    double sim_seconds;
  };
  auto reused = [] {
    return obs::kObsEnabled ? obs::counter("gpumip.lp.refactor.reused").value() : 0u;
  };
  for (const Golden& g : {Golden{1, 653, 58, 0x1.72442842dcb8p-4},
                          Golden{2, 31, 3, 0x1.b1c3131b96643p-8}}) {
    const mip::MipModel m = test_mip(g.seed, 16, 28);
    const std::uint64_t reused_before = reused();
    const StrategyReport r = run_strategy(Strategy::S2_CpuOrchestrated, m, StrategyConfig{});
    ASSERT_TRUE(r.completed) << r.failure;
    EXPECT_EQ(r.result.status, mip::MipStatus::Optimal) << "seed " << g.seed;
    EXPECT_EQ(r.result.stats.nodes_evaluated, g.nodes) << "seed " << g.seed;
    EXPECT_EQ(r.result.stats.total_ops.refactor, g.refactor) << "seed " << g.seed;
    EXPECT_EQ(r.sim_seconds, g.sim_seconds) << "seed " << g.seed;
    if (g.seed == 1) {
      // The pin must keep covering B⁻¹-store eviction and the solver's
      // refactorization memo: seed 1's frontier (peak 529) outgrows the
      // store's 64 slots, and evicted parents' children reuse a sibling's
      // refactorization.
      EXPECT_GT(r.result.stats.anatomy.active_peak, 64);
      if (obs::kObsEnabled) {
        EXPECT_GT(reused() - reused_before, 0u);
      }
    }
  }
}

TEST(Strategies, BnbTreeReplayTracesOneKernelEventPerFamily) {
  // The S2 replay charges each node's kernels in bulk, one launch_n per
  // kernel family, so its trace holds one kernel event per family per node
  // instead of one per launch, and those events still account for every
  // launch and every simulated kernel second.
  if (!obs::kObsEnabled) GTEST_SKIP() << "trace macros are compiled out";
  const mip::MipModel m = test_mip(1, 16, 28);
  StrategyConfig cfg;
  mip::BnbSolver solver(m, cfg.mip);
  static_cast<void>(solver.solve());
  // The replay's kernels, charged the way it charges them: the host's
  // operations plus one refactorization per non-hot inherited node.
  gpu::Device mirror(cfg.device);
  for (const mip::NodeTrace& t : solver.trace()) {
    lp::LpOpStats ops = t.ops;
    ops.refactor += t.inherited && !t.hot ? 1 : 0;
    lp::charge_to_device(mirror, 0, ops, /*sparse_pricing=*/false);
  }
  const std::uint64_t nodes = solver.trace().size();

  obs::trace::reset();
  const std::uint64_t launches_before = obs::counter("gpumip.gpu.kernel.launches").value();
  const StrategyReport r = replay_strategy(Strategy::S2_CpuOrchestrated, solver, cfg);
  ASSERT_TRUE(r.completed) << r.failure;
  EXPECT_EQ(obs::counter("gpumip.gpu.kernel.launches").value() - launches_before,
            mirror.stats().kernels);
  ASSERT_EQ(obs::trace::dropped(), 0u);

  std::uint64_t events = 0;
  std::uint64_t launches = 0;
  double seconds = 0.0;
  for (const obs::trace::TraceEvent& ev : obs::trace::snapshot()) {
    if (ev.name_view() != "gpumip.gpu.kernel") continue;
    ++events;
    launches += ev.arg;
    seconds += ev.dur;
  }
  EXPECT_EQ(launches, mirror.stats().kernels);
  EXPECT_NEAR(seconds, mirror.stats().kernel_seconds, 1e-12 * mirror.stats().kernel_seconds);
  EXPECT_LE(events, 6 * nodes);
  EXPECT_LT(4 * events, launches);
}

TEST(Strategies, InheritedInverseIsRebuiltOnceOnTheDevice) {
  // A node that inherited its parent's B⁻¹ while another node's basis was
  // resident costs the S2 replay exactly one device refactorization on top
  // of the operations the host ran, and no extra transfer.
  const mip::MipModel m = test_mip(1, 16, 28);
  StrategyConfig cfg;
  mip::BnbSolver solver(m, cfg.mip);
  static_cast<void>(solver.solve());
  long rebuilt = 0;
  std::uint64_t hot = 0;
  gpu::Device host_ops(cfg.device);
  for (const mip::NodeTrace& t : solver.trace()) {
    rebuilt += t.inherited && !t.hot ? 1 : 0;
    hot += t.hot ? 1 : 0;
    lp::charge_to_device(host_ops, 0, t.ops, /*sparse_pricing=*/false);
  }
  ASSERT_GT(rebuilt, 0);
  const std::uint64_t nodes = solver.trace().size();

  auto launches = [] {
    return obs::kObsEnabled ? obs::counter("gpumip.gpu.kernel.launches").value() : 0;
  };
  const std::uint64_t before = launches();
  const StrategyReport r = replay_strategy(Strategy::S2_CpuOrchestrated, solver, cfg);
  const std::uint64_t replay_launches = launches() - before;
  ASSERT_TRUE(r.completed) << r.failure;
  // Matrix upload; per node a bound delta (hot) or bounds + basis (cold),
  // then the objective readback.
  EXPECT_EQ(r.transfers, 1 + hot + 2 * (nodes - hot) + nodes);
  if (obs::kObsEnabled) {
    EXPECT_EQ(replay_launches, host_ops.stats().kernels + static_cast<std::uint64_t>(rebuilt));
  }
}

TEST(Strategies, HybridNoSlowerThanCpuOrchestrated) {
  mip::MipModel m = test_mip(99, 12, 20);
  StrategyConfig cfg;
  cfg.mip.enable_cuts = false;
  mip::BnbSolver searched(m, cfg.mip);
  static_cast<void>(searched.solve());
  StrategyReport s2 = replay_strategy(Strategy::S2_CpuOrchestrated, searched, cfg);
  StrategyReport s3 = replay_strategy(Strategy::S3_Hybrid, searched, cfg);
  ASSERT_TRUE(s2.completed);
  ASSERT_TRUE(s3.completed);
  EXPECT_LE(s3.sim_seconds, s2.sim_seconds + 1e-12);
}

TEST(Strategies, S1FailsWhenTreeExceedsDeviceMemory) {
  mip::MipModel m = test_mip(111, 14, 26);
  StrategyConfig cfg;
  cfg.mip.enable_cuts = false;
  mip::BnbSolver searched(m, cfg.mip);
  // The search itself (host numerics) certifies the optimum.
  ASSERT_EQ(searched.solve().status, mip::MipStatus::Optimal);
  // Room for the LP matrix plus only a couple of tree nodes.
  cfg.device.memory_bytes = lp_device_footprint(searched.form()) + 1024;
  StrategyReport s1 = replay_strategy(Strategy::S1_GpuOnly, searched, cfg);
  EXPECT_FALSE(s1.completed);
  EXPECT_NE(s1.failure.find("OutOfDeviceMemory"), std::string::npos);
  // S2 keeps the tree host-side and fits the same device fine.
  StrategyReport s2 = replay_strategy(Strategy::S2_CpuOrchestrated, searched, cfg);
  EXPECT_TRUE(s2.completed) << s2.failure;
}

TEST(Strategies, OnlyBigMipSurvivesHugeMatrix) {
  // Device memory sized so one dense LP matrix does not fit a single
  // device but the column shards + basis do (the paper's Big-MIP
  // scenario). The search is node-capped: memory behaviour, not the
  // optimum, is under test.
  mip::MipModel m = test_mip(122, 24, 48);
  StrategyConfig cfg;
  cfg.mip.enable_cuts = false;
  cfg.mip.max_nodes = 50;
  mip::BnbSolver searched(m, cfg.mip);
  static_cast<void>(searched.solve());
  cfg.devices = 4;
  cfg.device.memory_bytes = lp_device_footprint(searched.form()) * 6 / 10;
  StrategyReport s2 = replay_strategy(Strategy::S2_CpuOrchestrated, searched, cfg);
  StrategyReport s4 = replay_strategy(Strategy::S4_BigMip, searched, cfg);
  EXPECT_FALSE(s2.completed);
  EXPECT_TRUE(s4.completed) << s4.failure;
  EXPECT_GT(s4.network_seconds, 0.0);
}

TEST(Strategies, S2TransfersLessOnHotNodes) {
  // GpuLocality node selection -> more hot nodes -> fewer H2D bytes in S2.
  mip::MipModel m = test_mip(133, 12, 22);
  StrategyConfig best_first;
  best_first.mip.enable_cuts = false;
  best_first.mip.node_selection = mip::NodeSelection::BestFirst;
  StrategyConfig locality = best_first;
  locality.mip.node_selection = mip::NodeSelection::GpuLocality;
  StrategyReport a = run_strategy(Strategy::S2_CpuOrchestrated, m, best_first);
  StrategyReport b = run_strategy(Strategy::S2_CpuOrchestrated, m, locality);
  ASSERT_TRUE(a.completed && b.completed);
  EXPECT_NEAR(a.result.objective, b.result.objective, 1e-6);
  const double a_bytes_per_node =
      static_cast<double>(a.bytes_h2d) / std::max<long>(1, a.result.stats.nodes_evaluated);
  const double b_bytes_per_node =
      static_cast<double>(b.bytes_h2d) / std::max<long>(1, b.result.stats.nodes_evaluated);
  EXPECT_LT(b_bytes_per_node, a_bytes_per_node);
}

}  // namespace
}  // namespace gpumip::parallel
