#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "mip/solver.hpp"
#include "problems/generators.hpp"
#include "problems/mps.hpp"

namespace gpumip::problems {
namespace {

TEST(Generators, KnapsackShape) {
  Rng rng(1);
  mip::MipModel m = knapsack(20, rng);
  EXPECT_EQ(m.num_cols(), 20);
  EXPECT_EQ(m.num_rows(), 1);
  EXPECT_EQ(m.num_integer(), 20);
  EXPECT_EQ(m.lp().sense(), lp::Sense::Maximize);
  m.validate();
}

TEST(Generators, SetCoverEveryElementCoverable) {
  Rng rng(2);
  mip::MipModel m = set_cover(30, 12, rng);
  // All-ones is feasible by construction.
  linalg::Vector ones(12, 1.0);
  EXPECT_TRUE(m.is_feasible(ones));
}

TEST(Generators, GapRowStructure) {
  Rng rng(3);
  mip::MipModel m = generalized_assignment(3, 5, rng);
  EXPECT_EQ(m.num_cols(), 15);
  EXPECT_EQ(m.num_rows(), 5 + 3);  // one equality per job + one capacity per agent
}

TEST(Generators, UnitCommitmentFeasible) {
  Rng rng(4);
  mip::MipModel m = unit_commitment(3, 3, rng);
  // All generators committed at full output is feasible.
  linalg::Vector x(static_cast<std::size_t>(m.num_cols()), 0.0);
  for (int j = 0; j < m.num_cols(); ++j) {
    const auto& col = m.lp().col(j);
    x[static_cast<std::size_t>(j)] = m.is_integer(j) ? 1.0 : col.ub;
  }
  EXPECT_TRUE(m.is_feasible(x));
}

TEST(Generators, RandomMipZeroFeasible) {
  Rng rng(5);
  RandomMipConfig cfg;
  mip::MipModel m = random_mip(cfg, rng);
  linalg::Vector zeros(static_cast<std::size_t>(m.num_cols()), 0.0);
  EXPECT_TRUE(m.is_feasible(zeros));
}

TEST(Generators, LpDensityControl) {
  Rng rng(6);
  lp::LpModel dense = dense_lp(20, 30, rng);
  lp::LpModel sparse10 = sparse_lp(40, 60, 0.1, rng);
  EXPECT_GT(dense.density(), 0.99);
  EXPECT_LT(sparse10.density(), 0.2);
  EXPECT_GT(sparse10.density(), 0.02);
}

TEST(Mps, WriteReadRoundTripPreservesOptimum) {
  Rng rng(7);
  RandomMipConfig cfg;
  cfg.rows = 6;
  cfg.cols = 7;
  cfg.bound = 3.0;
  mip::MipModel original = random_mip(cfg, rng);
  const std::string text = write_mps_string(original);
  mip::MipModel parsed = read_mps_string(text);
  EXPECT_EQ(parsed.num_cols(), original.num_cols());
  EXPECT_EQ(parsed.num_rows(), original.num_rows());
  EXPECT_EQ(parsed.num_integer(), original.num_integer());
  mip::MipResult r1 = mip::BnbSolver(original, {}).solve();
  mip::MipResult r2 = mip::BnbSolver(parsed, {}).solve();
  ASSERT_EQ(r1.status, mip::MipStatus::Optimal);
  ASSERT_EQ(r2.status, mip::MipStatus::Optimal);
  EXPECT_NEAR(r1.objective, r2.objective, 1e-6);
}

TEST(Mps, ParsesHandWrittenFile) {
  const std::string text = R"(* comment line
NAME TEST1
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
 MK2 'MARKER' 'INTEND'
RHS
 RHS1 LIM1 10.0 LIM2 1.0
 RHS1 EQ1 2.0
BOUNDS
 UP BND1 X 8.0
 UI BND1 Y 5
ENDATA
)";
  mip::MipModel m = read_mps_string(text);
  EXPECT_EQ(m.num_cols(), 2);
  EXPECT_EQ(m.num_rows(), 3);
  EXPECT_FALSE(m.is_integer(0));
  EXPECT_TRUE(m.is_integer(1));
  EXPECT_DOUBLE_EQ(m.lp().col(0).ub, 8.0);
  EXPECT_DOUBLE_EQ(m.lp().col(1).ub, 5.0);
  EXPECT_DOUBLE_EQ(m.lp().col(0).obj, 1.0);
  EXPECT_DOUBLE_EQ(m.lp().col(1).obj, -3.0);
  EXPECT_DOUBLE_EQ(m.lp().row(0).ub, 10.0);
  EXPECT_DOUBLE_EQ(m.lp().row(1).lb, 1.0);
  EXPECT_DOUBLE_EQ(m.lp().row(2).lb, 2.0);
  EXPECT_DOUBLE_EQ(m.lp().row(2).ub, 2.0);
}

TEST(Mps, RangesSection) {
  const std::string text = R"(NAME R
ROWS
 N COST
 L ROW1
COLUMNS
 X COST 1.0 ROW1 1.0
RHS
 RHS1 ROW1 10.0
RANGES
 RNG1 ROW1 4.0
ENDATA
)";
  mip::MipModel m = read_mps_string(text);
  EXPECT_DOUBLE_EQ(m.lp().row(0).ub, 10.0);
  EXPECT_DOUBLE_EQ(m.lp().row(0).lb, 6.0);
}

TEST(Mps, MalformedInputsThrow) {
  EXPECT_THROW(read_mps_string(""), Error);                      // no ENDATA
  EXPECT_THROW(read_mps_string("JUNKSECTION\nENDATA\n"), Error); // bad section
  EXPECT_THROW(read_mps_string("ROWS\n Z BAD\nENDATA\n"), Error);
  EXPECT_THROW(read_mps_string("COLUMNS\n X NOROW 1.0\nENDATA\n"), Error);
  EXPECT_THROW(read_mps_file("/nonexistent/path.mps"), Error);
}

TEST(Mps, MalformedNumbersThrowTypedError) {
  // One valid file; each case swaps one numeric field for a bad token.
  struct Fields {
    std::string cost = "1.0", rhs = "3.0", range = "2.0", bound = "8.0";
  };
  const auto mps = [](const Fields& f) {
    return "NAME N\nROWS\n N COST\n L R1\nCOLUMNS\n X COST " + f.cost +
           " R1 1.0\nRHS\n RHS1 R1 " + f.rhs + "\nRANGES\n RNG1 R1 " + f.range +
           "\nBOUNDS\n UP BND1 X " + f.bound + "\nENDATA\n";
  };
  EXPECT_NO_THROW(read_mps_string(mps({})));
  const std::vector<Fields> cases = {
      {.cost = "abc"},     {.cost = "1e999"},   {.cost = "1.5junk"},
      {.rhs = "3.0x"},     {.range = "-1e999"}, {.bound = "nope"},
      {.bound = "1e999"},
  };
  for (const Fields& f : cases) {
    SCOPED_TRACE(mps(f));
    try {
      static_cast<void>(read_mps_string(mps(f)));
      ADD_FAILURE() << "malformed number accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIoError);
    }
  }
}

TEST(Mps, ObjsenseMaximize) {
  const std::string text = R"(NAME S
OBJSENSE
 MAX
ROWS
 N COST
 L R1
COLUMNS
 X COST 2.0 R1 1.0
RHS
 RHS1 R1 3.0
ENDATA
)";
  mip::MipModel m = read_mps_string(text);
  EXPECT_EQ(m.lp().sense(), lp::Sense::Maximize);
}

}  // namespace
}  // namespace gpumip::problems
