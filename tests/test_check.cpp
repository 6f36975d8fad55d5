// Seeded-corruption tests for the invariant-checking subsystem: each test
// plants one specific inconsistency (orphaned tree node, drifted inverse,
// unsorted CSR indices, leaked device block, dropped simmpi message, ...)
// and asserts the matching validator fires with ErrorCode::kInternal.
#include <gtest/gtest.h>

#include "check/invariants.hpp"
#include "check/message_audit.hpp"
#include "check/registry.hpp"
#include "gpu/device.hpp"
#include "mip/solver.hpp"
#include "parallel/supervisor.hpp"
#include "problems/mps.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace gpumip {
namespace {

using check::Subsystem;

template <typename Fn>
void expect_internal(Fn&& fn) {
  try {
    fn();
    FAIL() << "expected Error(kInternal), nothing was thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Macros & registry
// ---------------------------------------------------------------------------

TEST(CheckedMode, AssertTogglesWithBuildMode) {
  EXPECT_NO_THROW(GPUMIP_ASSERT(true, "never fires"));
  if constexpr (kCheckedBuild) {
    expect_internal([] { GPUMIP_ASSERT(false, "seeded failure"); });
    expect_internal([] { GPUMIP_INVARIANT(1 == 2, "seeded failure"); });
  } else {
    EXPECT_NO_THROW(GPUMIP_ASSERT(false, "compiled out"));
    EXPECT_NO_THROW(GPUMIP_INVARIANT(1 == 2, "compiled out"));
  }
}

TEST(CheckedMode, RegistryCountsRunsAndFailures) {
  // Build first, reset second: in checked builds csr_from_triplets itself
  // validates its output, which would otherwise count an extra run.
  const sparse::Csr ok = sparse::csr_from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  check::reset_counters();
  check::check_sparse(ok);
  EXPECT_EQ(check::checks_run(Subsystem::kSparse), 1u);
  EXPECT_EQ(check::checks_failed(Subsystem::kSparse), 0u);

  sparse::Csr bad = ok;
  bad.col_index = {1, 0};
  bad.row_start = {0, 2, 2};
  expect_internal([&] { check::check_sparse(bad); });
  EXPECT_EQ(check::checks_failed(Subsystem::kSparse), 1u);
  EXPECT_GE(check::checks_run_total(), 2u);
}

// ---------------------------------------------------------------------------
// Sparse structure (seeded corruption: unsorted CSR indices)
// ---------------------------------------------------------------------------

TEST(CheckSparse, UnsortedCsrIndicesFire) {
  sparse::Csr a;
  a.rows = 1;
  a.cols = 3;
  a.row_start = {0, 2};
  a.col_index = {2, 0};  // unsorted within the row
  a.values = {1.0, 2.0};
  expect_internal([&] { check::check_sparse(a); });
}

TEST(CheckSparse, DuplicateIndexAndBadRowStartFire) {
  sparse::Csr dup;
  dup.rows = 1;
  dup.cols = 3;
  dup.row_start = {0, 2};
  dup.col_index = {1, 1};  // duplicate entry
  dup.values = {1.0, 2.0};
  expect_internal([&] { check::check_sparse(dup); });

  sparse::Csr bad_start;
  bad_start.rows = 2;
  bad_start.cols = 2;
  bad_start.row_start = {0, 2, 1};  // not monotone
  bad_start.col_index = {0, 1};
  bad_start.values = {1.0, 1.0};
  expect_internal([&] { check::check_sparse(bad_start); });
}

TEST(CheckSparse, ValidFormatsPass) {
  const sparse::Csr a = sparse::csr_from_triplets(3, 4, {{0, 1, 1.0}, {2, 0, -2.0}, {2, 3, 4.0}});
  EXPECT_NO_THROW(check::check_sparse(a));
  EXPECT_NO_THROW(check::check_sparse(sparse::csr_to_csc(a)));
}

// ---------------------------------------------------------------------------
// Tree structure (seeded corruption: orphaned node, bound regression)
// ---------------------------------------------------------------------------

mip::BnbNode make_node(int parent, int depth, double bound) {
  mip::BnbNode n;
  n.parent = parent;
  n.depth = depth;
  n.bound = bound;
  n.lb = {0.0};
  n.ub = {1.0};
  return n;
}

TEST(CheckTree, OrphanedOpenNodeFires) {
  mip::NodePool pool;
  expect_internal([&] {
    pool.push(make_node(-1, 0, -1e300));
    pool.node(0).bound = 1.0;
    pool.set_state(0, mip::NodeState::Branched);
    pool.push(make_node(0, 1, 2.0));  // legitimate child
    // Retire the parent to a leaf state while its child is still open: the
    // child is now orphaned. (In checked builds the set_state/pop machinery
    // may fire first; either way the corruption must not survive check_tree.)
    pool.set_state(0, mip::NodeState::PrunedLeaf);
    check::check_tree(pool);
  });
}

TEST(CheckTree, BoundRegressionFires) {
  mip::NodePool pool;
  expect_internal([&] {
    pool.push(make_node(-1, 0, 5.0));
    pool.set_state(0, mip::NodeState::Branched);
    pool.push(make_node(0, 1, 1.0));  // child bound below parent bound
    check::check_tree(pool);
  });
}

TEST(CheckTree, StaleHeapBoundFires) {
  // The frontier heap caches each active node's bound; changing the bound
  // behind the pool's back leaves the heap ordered on a stale key.
  mip::NodePool pool;
  pool.push(make_node(-1, 0, 1.0));
  pool.push(make_node(-1, 0, 2.0));
  EXPECT_NO_THROW(check::check_tree(pool));
  pool.node(1).bound = 0.5;
  expect_internal([&] { check::check_tree(pool); });
}

TEST(CheckTree, HealthySolveTreePasses) {
  mip::MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_int_col(1.0, 0, 10), y = m.add_int_col(1.0, 0, 10);
  m.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 5.0);
  m.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 7.0);
  mip::BnbSolver solver(m);
  ASSERT_EQ(solver.solve().status, mip::MipStatus::Optimal);
  EXPECT_NO_THROW(check::check_tree(solver.pool()));
  EXPECT_NO_THROW(check::check_snapshot(solver.capture_snapshot()));
}

// ---------------------------------------------------------------------------
// Snapshot consistency (paper C2)
// ---------------------------------------------------------------------------

TEST(CheckSnapshot, InFlightNodesFire) {
  mip::ConsistentSnapshot snap;
  expect_internal([&] { check::check_snapshot(snap, nullptr, /*in_flight=*/3); });
}

TEST(CheckSnapshot, CrossedBoundsFire) {
  mip::ConsistentSnapshot snap;
  snap.frontier.push_back({{2.0}, {1.0}, 0.0, 1});  // lb > ub
  expect_internal([&] { check::check_snapshot(snap); });
}

TEST(CheckSnapshot, NodeAboveIncumbentFires) {
  mip::ConsistentSnapshot snap;
  snap.incumbent_objective = 1.0;
  snap.incumbent_x = {0.0};
  snap.frontier.push_back({{0.0}, {1.0}, 7.0, 1});  // worse than the incumbent
  expect_internal([&] { check::check_snapshot(snap); });
}

TEST(CheckSnapshot, IncumbentOutsideBoundsFires) {
  lp::LpModel m;
  const int x = m.add_col(1.0, 0.0, 10.0);
  m.add_row_le({{x, 1.0}}, 5.0);
  const lp::StandardForm form = lp::build_standard_form(m);

  mip::ConsistentSnapshot snap;
  snap.incumbent_objective = 0.0;
  snap.incumbent_x = {-3.0};  // below the structural lower bound
  expect_internal([&] { check::check_snapshot(snap, &form); });
}

// ---------------------------------------------------------------------------
// Basis / explicit inverse (paper C3: rank-1 update reuse)
// ---------------------------------------------------------------------------

struct BasisFixture {
  lp::LpModel model;
  lp::StandardForm form;
  lp::Basis slack_basis;

  BasisFixture() {
    const int x = model.add_col(1.0, 0.0, 10.0);
    model.add_row_le({{x, 1.0}}, 5.0);
    model.add_row_le({{x, 2.0}}, 8.0);
    form = lp::build_standard_form(model);
    // Slack basis: B is the identity.
    slack_basis.basic = {1, 2};
    slack_basis.status = {lp::VarStatus::AtLower, lp::VarStatus::Basic, lp::VarStatus::Basic};
  }
};

TEST(CheckBasis, StructuralCorruptionFires) {
  BasisFixture fx;
  EXPECT_NO_THROW(check::check_basis(fx.form, fx.slack_basis));

  lp::Basis dup = fx.slack_basis;
  dup.basic = {1, 1};  // same variable basic in two rows
  expect_internal([&] { check::check_basis(fx.form, dup); });

  lp::Basis mislabeled = fx.slack_basis;
  mislabeled.status[1] = lp::VarStatus::AtLower;  // basic var not flagged Basic
  expect_internal([&] { check::check_basis(fx.form, mislabeled); });
}

TEST(CheckBasis, DriftedInverseFires) {
  const linalg::Matrix b = linalg::Matrix::identity(3);
  linalg::Matrix drifted = b;
  drifted(1, 1) = 1.5;  // corrupted entry: no longer B⁻¹
  EXPECT_NO_THROW(check::check_basis_inverse(b, b));
  expect_internal([&] { check::check_basis_inverse(b, drifted); });
}

// ---------------------------------------------------------------------------
// Device memory ledger (leaks / double frees at teardown)
// ---------------------------------------------------------------------------

TEST(DeviceLedger, LeakedBlockFires) {
  gpu::Device device;
  EXPECT_NO_THROW(device.audit());
  {
    const gpu::DeviceBuffer buf = device.alloc(1024, "leaked-block");
    EXPECT_EQ(device.live_allocations(), 1u);
    // Audit before the block is returned: exactly the teardown-leak shape.
    expect_internal([&] { device.audit(); });
  }
  EXPECT_EQ(device.live_allocations(), 0u);
  EXPECT_NO_THROW(device.audit());
}

TEST(DeviceLedger, DoubleFreeFires) {
  gpu::Device device;
  std::uint64_t id = 0;
  std::size_t bytes = 0;
  {
    const gpu::DeviceBuffer buf = device.alloc_doubles(16, "victim");
    id = buf.alloc_id();
    bytes = buf.size_bytes();
  }  // first (legitimate) free
  EXPECT_NO_THROW(device.audit());
  device.inject_free(id, bytes);  // second free of the same allocation
  EXPECT_EQ(device.stats().double_frees, 1u);
  expect_internal([&] { device.audit(); });
}

TEST(DeviceLedger, MoveTransfersOwnership) {
  gpu::Device device;
  gpu::DeviceBuffer a = device.alloc(64, "a");
  const std::uint64_t id = a.alloc_id();
  gpu::DeviceBuffer b = std::move(a);
  EXPECT_EQ(b.alloc_id(), id);
  EXPECT_EQ(a.alloc_id(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is defined empty
  EXPECT_EQ(device.live_allocations(), 1u);
  b = gpu::DeviceBuffer();  // releases
  EXPECT_EQ(device.live_allocations(), 0u);
  EXPECT_NO_THROW(device.audit());
}

// ---------------------------------------------------------------------------
// simmpi message audit (lost / double-delivered subproblems)
// ---------------------------------------------------------------------------

TEST(MessageAudit, DroppedSubproblemFires) {
  check::MessageAuditor auditor;
  const std::uint64_t id = auditor.shipped(/*dest=*/1);
  auditor.delivered(id, 1);
  // The worker never reports back: the subproblem is lost in shutdown.
  EXPECT_EQ(auditor.in_flight(), 1);
  expect_internal([&] { auditor.finalize(); });
}

TEST(MessageAudit, DoubleDeliveryFires) {
  check::MessageAuditor auditor;
  const std::uint64_t id = auditor.shipped(1);
  auditor.delivered(id, 1);
  auditor.delivered(id, 2);  // the same assignment evaluated twice
  auditor.completed(id);
  EXPECT_EQ(auditor.anomalies(), 1);
  expect_internal([&] { auditor.finalize(); });
}

TEST(MessageAudit, CleanProtocolPasses) {
  check::MessageAuditor auditor;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t id = auditor.shipped(1 + i % 2);
    auditor.delivered(id, 1 + i % 2);
    auditor.completed(id);
  }
  EXPECT_EQ(auditor.in_flight(), 0);
  EXPECT_EQ(auditor.anomalies(), 0);
  EXPECT_NO_THROW(auditor.finalize());
  EXPECT_EQ(auditor.total_shipped(), 5u);
}

TEST(MessageAudit, RankFailurePropagatesInsteadOfDeadlocking) {
  // A checked-mode invariant failure inside one rank must abort the whole
  // run: peers blocked in recv() get woken and run_ranks rethrows the
  // original error (before abort propagation this scenario hung forever).
  try {
    parallel::run_ranks(2, [](parallel::Comm& comm) {
      if (comm.rank() == 0) {
        throw Error(ErrorCode::kInternal, "seeded rank failure");
      }
      comm.recv();  // waits for a message rank 0 will never send
    });
    FAIL() << "expected the seeded rank failure to propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal) << e.what();
    EXPECT_NE(std::string(e.what()).find("seeded rank failure"), std::string::npos) << e.what();
  }
}

TEST(MessageAudit, SupervisedSolveShipsEveryNodeExactlyOnce) {
  // End-to-end: a supervised run with the auditor wired through the real
  // protocol must finish (checked builds would throw on any lost node).
  mip::MipModel m;
  m.lp().set_sense(lp::Sense::Maximize);
  const int x = m.add_int_col(3.0, 0, 4), y = m.add_int_col(2.0, 0, 4);
  m.lp().add_row_le({{x, 2.0}, {y, 1.0}}, 7.0);
  m.lp().add_row_le({{x, 1.0}, {y, 3.0}}, 9.0);
  parallel::SupervisorOptions opts;
  opts.workers = 2;
  opts.ramp_up_nodes = 2;
  opts.worker_node_budget = 4;
  const parallel::SupervisorResult r = parallel::solve_supervised(m, opts);
  EXPECT_EQ(r.result.status, mip::MipStatus::Optimal);
}

// ---------------------------------------------------------------------------
// Snapshot deserialize hardening (kIoError with line context)
// ---------------------------------------------------------------------------

void expect_io_error(const std::string& text, const std::string& fragment) {
  try {
    static_cast<void>(mip::ConsistentSnapshot::from_string(text));
    FAIL() << "expected Error(kIoError) for: " << text;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError) << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
  }
}

TEST(SnapshotHardening, MalformedInputThrowsIoErrorWithLineContext) {
  expect_io_error("garbage", "bad magic");
  expect_io_error("gpumip-snapshot-v1\n1 2\n", "truncated");
  expect_io_error("gpumip-snapshot-v1\nnot-a-number 0\n0\n0\n", "expected a number");
  expect_io_error("gpumip-snapshot-v1\n1 0\n0\n999999999999\n", "sanity limit");
  // Crossed bounds inside frontier node 0: lb = {5}, ub = {3}.
  expect_io_error("gpumip-snapshot-v1\n1 0\n0\n1\n0 1\n1 5\n1 3\n", "crossed bounds");
  // Frontier nodes whose bound vectors disagree in length.
  expect_io_error("gpumip-snapshot-v1\n1 0\n0\n2\n0 1\n1 0\n1 1\n0 1\n2 0 0\n2 1 1\n",
                  "length differs");
}

TEST(SnapshotHardening, RoundTripStillWorks) {
  mip::ConsistentSnapshot snap;
  snap.incumbent_objective = -3.5;
  snap.incumbent_x = {1.0, 2.0};
  snap.nodes_solved_so_far = 42;
  snap.frontier.push_back({{0.0, -1e300}, {1.0, 1e300}, -7.25, 3});
  snap.frontier.push_back({{0.5, 0.0}, {2.0, 4.0}, -6.0, 4});
  const mip::ConsistentSnapshot back = mip::ConsistentSnapshot::from_string(snap.to_string());
  EXPECT_DOUBLE_EQ(back.incumbent_objective, -3.5);
  EXPECT_EQ(back.nodes_solved_so_far, 42);
  ASSERT_EQ(back.frontier.size(), 2u);
  EXPECT_DOUBLE_EQ(back.frontier[0].bound, -7.25);
  EXPECT_EQ(back.frontier[1].depth, 4);
  EXPECT_NO_THROW(check::check_snapshot(back));
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of the text readers: whatever a corrupted input
// parses to, the only acceptable failure is a typed gpumip::Error. Any other
// exception (std::length_error from a wild size, std::out_of_range, ...) or
// a sanitizer report is a reader bug.
// ---------------------------------------------------------------------------

/// 1-4 random byte edits: overwrite, delete, or insert.
std::string mutate(const std::string& original, Rng& rng) {
  std::string text = original;
  const int edits = 1 + static_cast<int>(rng.index(4));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.index(text.size());
    const auto byte = static_cast<char>(rng.index(256));
    switch (rng.index(3)) {
      case 0: text[at] = byte; break;
      case 1: text.erase(at, 1); break;
      default: text.insert(at, 1, byte); break;
    }
  }
  return text;
}

/// Runs 512 seeded mutations of `original` through `parse`; `typed_ok`
/// decides whether a gpumip::Error is an acceptable failure. Returns the
/// number of trials that failed.
template <typename Parse, typename TypedOk>
int fuzz_reader(const std::string& original, std::uint64_t seed, Parse parse,
                TypedOk typed_ok) {
  Rng rng(seed);
  int failures = 0;
  for (int trial = 0; trial < 512; ++trial) {
    const std::string text = mutate(original, rng);
    try {
      parse(text);
    } catch (const Error& e) {
      EXPECT_TRUE(typed_ok(e)) << "trial " << trial << ": " << e.what();
      ++failures;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << ": untyped " << e.what();
      ++failures;
    }
  }
  return failures;
}

TEST(SnapshotHardening, MutationFuzzOnlyRaisesIoErrors) {
  mip::ConsistentSnapshot snap;
  snap.incumbent_objective = -12.5;
  snap.incumbent_x = {1.0, 0.0, 3.0};
  snap.nodes_solved_so_far = 42;
  snap.frontier.push_back({{0.0, 0.0, -1e300}, {5.0, 5.0, 1e300}, -20.0, 2});
  snap.frontier.push_back({{1.0, 0.0, 0.25}, {5.0, 2.0, 4.5}, -18.5, 3});
  const std::string original = snap.to_string();
  ASSERT_NO_THROW(static_cast<void>(mip::ConsistentSnapshot::from_string(original)));
  const int failures = fuzz_reader(
      original, 0x5EEDu,
      [](const std::string& text) {
        static_cast<void>(mip::ConsistentSnapshot::from_string(text));
      },
      [](const Error& e) { return e.code() == ErrorCode::kIoError; });
  EXPECT_GT(failures, 0);
}

TEST(MpsHardening, MutationFuzzOnlyRaisesTypedErrors) {
  // Every section and bound type the reader knows.
  const std::string original = R"(NAME FUZZ
OBJSENSE
 MAX
ROWS
 N COST
 L LIM1
 G LIM2
 E EQ1
COLUMNS
 X COST 1.0 LIM1 2.0
 X LIM2 1.0
 MK1 'MARKER' 'INTORG'
 Y COST -3.0 LIM1 1.0
 Y EQ1 1.0
 Z COST 0.5 LIM2 -1.5
 MK2 'MARKER' 'INTEND'
 W COST 2.0 EQ1 1.0
RHS
 RHS1 LIM1 10.0 LIM2 1.0
 RHS1 EQ1 2.0
RANGES
 RNG1 LIM1 4.0
BOUNDS
 UP BND1 X 8.0
 LO BND1 X 1.0
 UI BND1 Y 5
 LI BND1 Y 0
 BV BND1 Z
 FR BND1 W
 MI BND1 W
 PL BND1 W
 FX BND1 W 3.0
ENDATA
)";
  ASSERT_NO_THROW(static_cast<void>(problems::read_mps_string(original)));
  const int failures = fuzz_reader(
      original, 0xB0B5u,
      [](const std::string& text) { static_cast<void>(problems::read_mps_string(text)); },
      [](const Error& e) { return e.code() == ErrorCode::kIoError; });
  EXPECT_GT(failures, 0);
}

TEST(MpsHardening, CrossedBoundsNameTheLastBoundsLine) {
  const std::string head = R"(NAME CROSS
ROWS
 N COST
 L LIM1
COLUMNS
 X COST 1.0 LIM1 1.0
 Y COST 1.0 LIM1 1.0
RHS
 RHS1 LIM1 10.0
BOUNDS
)";
  // Crossed only for a moment (UP 2, then LO 5, then UP 8): a valid file.
  const mip::MipModel ok =
      problems::read_mps_string(head + " UP BND1 X 2.0\n LO BND1 X 5.0\n UP BND1 X 8.0\nENDATA\n");
  EXPECT_EQ(ok.lp().col(0).lb, 5.0);
  EXPECT_EQ(ok.lp().col(0).ub, 8.0);
  // Still crossed when the section ends: the error names line 12, X's last
  // BOUNDS entry, not Y's later one.
  try {
    static_cast<void>(problems::read_mps_string(
        head + " UP BND1 X 8.0\n LO BND1 X 9.0\n UP BND1 Y 4.0\nENDATA\n"));
    ADD_FAILURE() << "crossed bounds accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    const std::string what = e.what();
    EXPECT_NE(what.find("line 12"), std::string::npos) << what;
    EXPECT_NE(what.find("'X'"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace gpumip
