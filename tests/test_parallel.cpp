#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "obs/metrics.hpp"
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
  // The zero-copy overload must be wire-identical to the span overload:
  // same bytes delivered, same traffic accounting.
  RunReport report = run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> owned(64);
      for (std::size_t i = 0; i < owned.size(); ++i) owned[i] = static_cast<std::byte>(i);
      const std::vector<std::byte> kept = owned;  // lvalue -> span (copy) path
      comm.send(1, 1, std::move(owned));          // rvalue -> move path
      comm.send(1, 2, kept);
      comm.send(1, 3, std::span<const std::byte>{});  // explicit empty payload
    } else {
      const Message moved = comm.recv(0, 1);
      const Message copied = comm.recv(0, 2);
      const Message empty = comm.recv(0, 3);
      ASSERT_EQ(moved.payload.size(), 64u);
      EXPECT_EQ(moved.payload, copied.payload);
      EXPECT_TRUE(empty.payload.empty());
    }
  });
  EXPECT_EQ(report.network.messages, 3u);
  EXPECT_EQ(report.network.bytes, 128u);
}

TEST(SimMpi, MessageClocksPropagate) {
  // Receiver's clock must jump to at least sender's clock + wire time.
  RunReport report = run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.advance(1.0);  // sender does 1s of work first
      comm.send(1, 0, std::span<const std::byte>{});
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
      comm.send(1, 5, std::span<const std::byte>{});
      comm.send(1, 6, std::span<const std::byte>{});
    } else {
      // Receive out of order by tag.
      Message m6 = comm.recv(0, 6);
      EXPECT_EQ(m6.tag, 6);
      Message any = comm.recv();
      EXPECT_EQ(any.tag, 5);
    }
  });
}

TEST(SimMpi, TryRecvNonBlocking) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Message out;
      EXPECT_FALSE(comm.try_recv(out, 1, 99));
      comm.send(1, 1, std::span<const std::byte>{});
      Message confirm = comm.recv(1, 2);
      EXPECT_TRUE(comm.try_recv(out, 1, 3) || true);  // may or may not have arrived
    } else {
      comm.recv(0, 1);
      comm.send(0, 2, std::span<const std::byte>{});
      comm.send(0, 3, std::span<const std::byte>{});
    }
  });
}

TEST(SimMpi, BarrierAlignsClocks) {
  RunReport report = run_ranks(3, [](Comm& comm) {
    comm.advance(comm.rank() * 1.0);  // ranks at 0s, 1s, 2s
    comm.barrier();
    EXPECT_GE(comm.now(), 2.0);
  });
  EXPECT_GE(report.makespan, 2.0);
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

// ROADMAP item 4: per-node LP solves inside run_supervised go through a
// per-worker DeviceArena. With the arena, device allocations are bounded
// by slab growth; naive mode pays one Device::alloc per evaluated node.
TEST(Supervisor, WorkerArenaCutsPerNodeDeviceAllocs) {
  mip::MipModel m = test_mip(77, 14, 26);
  SupervisorOptions opts;
  opts.workers = 3;
  opts.worker_node_budget = 8;
  opts.ramp_up_nodes = 12;
  opts.mip.enable_cuts = false;
  opts.model_worker_device = true;

  auto alloc_calls = [] {
    return obs::kObsEnabled ? obs::counter("gpumip.gpu.alloc.calls").value() : 0;
  };

  const std::uint64_t before_naive = alloc_calls();
  opts.worker_arena = false;
  SupervisorResult naive = solve_supervised(m, opts);
  ASSERT_EQ(naive.result.status, mip::MipStatus::Optimal);
  const std::uint64_t naive_allocs = alloc_calls() - before_naive;

  const std::uint64_t before_arena = alloc_calls();
  opts.worker_arena = true;
  SupervisorResult arena = solve_supervised(m, opts);
  ASSERT_EQ(arena.result.status, mip::MipStatus::Optimal);
  const std::uint64_t arena_allocs = alloc_calls() - before_arena;

  // Residency modeling must not change the answer.
  EXPECT_NEAR(arena.result.objective, naive.result.objective, 1e-9);

  long worker_nodes = 0;
  for (long nodes : naive.worker_nodes) worker_nodes += nodes;
  ASSERT_GT(worker_nodes, 0) << "fixture too small: no work reached the workers";

  if (obs::kObsEnabled) {
    // Naive mode: at least one device alloc per worker-evaluated node.
    EXPECT_GE(naive_allocs, static_cast<std::uint64_t>(worker_nodes));
    // Arena mode: allocations are slab growth only — far below node count.
    EXPECT_LT(arena_allocs, naive_allocs / 2);
  }
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

// ---------------- strategies ----------------

TEST(Strategies, AllFourReachTheSameOptimum) {
  mip::MipModel m = test_mip(88, 10, 16);
  StrategyConfig cfg;
  cfg.mip.enable_cuts = false;
  double reference = 0.0;
  bool first = true;
  for (Strategy s : {Strategy::S1_GpuOnly, Strategy::S2_CpuOrchestrated, Strategy::S3_Hybrid,
                     Strategy::S4_BigMip}) {
    StrategyReport r = run_strategy(s, m, cfg);
    ASSERT_EQ(r.result.status, mip::MipStatus::Optimal) << strategy_name(s);
    EXPECT_TRUE(r.completed) << strategy_name(s) << ": " << r.failure;
    if (first) {
      reference = r.result.objective;
      first = false;
    } else {
      EXPECT_NEAR(r.result.objective, reference, 1e-6) << strategy_name(s);
    }
    EXPECT_GT(r.sim_seconds, 0.0) << strategy_name(s);
  }
}

TEST(Strategies, SeededBnbTreeReplayIsBitExact) {
  // Golden values recorded before the multi-right-hand-side DenseLU
  // inverse: a host-only speedup must leave the search and every
  // simulated second unchanged, bit for bit.
  struct Golden {
    std::uint64_t seed;
    long nodes;
    long refactor;
    double sim_seconds;
  };
  for (const Golden& g : {Golden{1, 653, 656, 0x1.722c6c83838cdp-4},
                          Golden{2, 31, 33, 0x1.b1c3131b96643p-8}}) {
    const mip::MipModel m = test_mip(g.seed, 16, 28);
    const StrategyReport r = run_strategy(Strategy::S2_CpuOrchestrated, m, StrategyConfig{});
    ASSERT_TRUE(r.completed) << r.failure;
    EXPECT_EQ(r.result.status, mip::MipStatus::Optimal) << "seed " << g.seed;
    EXPECT_EQ(r.result.stats.nodes_evaluated, g.nodes) << "seed " << g.seed;
    EXPECT_EQ(r.result.stats.total_ops.refactor, g.refactor) << "seed " << g.seed;
    EXPECT_EQ(r.sim_seconds, g.sim_seconds) << "seed " << g.seed;
  }
}

TEST(Strategies, HybridNoSlowerThanCpuOrchestrated) {
  mip::MipModel m = test_mip(99, 12, 20);
  StrategyConfig cfg;
  cfg.mip.enable_cuts = false;
  StrategyReport s2 = run_strategy(Strategy::S2_CpuOrchestrated, m, cfg);
  StrategyReport s3 = run_strategy(Strategy::S3_Hybrid, m, cfg);
  ASSERT_TRUE(s2.completed);
  ASSERT_TRUE(s3.completed);
  EXPECT_LE(s3.sim_seconds, s2.sim_seconds + 1e-12);
}

TEST(Strategies, S1FailsWhenTreeExceedsDeviceMemory) {
  mip::MipModel m = test_mip(111, 14, 26);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  StrategyConfig cfg;
  cfg.mip.enable_cuts = false;
  // Room for the LP matrix plus only a couple of tree nodes.
  cfg.device.memory_bytes = lp_device_footprint(form) + 1024;
  StrategyReport s1 = run_strategy(Strategy::S1_GpuOnly, m, cfg);
  EXPECT_FALSE(s1.completed);
  EXPECT_NE(s1.failure.find("OutOfDeviceMemory"), std::string::npos);
  // The search itself (host replay) still certified the optimum.
  EXPECT_EQ(s1.result.status, mip::MipStatus::Optimal);
  // S2 keeps the tree host-side and fits the same device fine.
  StrategyReport s2 = run_strategy(Strategy::S2_CpuOrchestrated, m, cfg);
  EXPECT_TRUE(s2.completed) << s2.failure;
}

TEST(Strategies, OnlyBigMipSurvivesHugeMatrix) {
  // Device memory sized so one dense LP matrix does not fit a single
  // device but the column shards + basis do (the paper's Big-MIP
  // scenario). The search is node-capped: memory behaviour, not the
  // optimum, is under test.
  mip::MipModel m = test_mip(122, 24, 48);
  const lp::StandardForm form = lp::build_standard_form(m.lp());
  StrategyConfig cfg;
  cfg.mip.enable_cuts = false;
  cfg.mip.max_nodes = 50;
  cfg.devices = 4;
  cfg.device.memory_bytes = lp_device_footprint(form) * 6 / 10;
  StrategyReport s2 = run_strategy(Strategy::S2_CpuOrchestrated, m, cfg);
  StrategyReport s4 = run_strategy(Strategy::S4_BigMip, m, cfg);
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
