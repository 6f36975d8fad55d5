#include <gtest/gtest.h>

#include <set>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace gpumip {
namespace {

TEST(Error, CodesHaveNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(error_code_name(ErrorCode::kOutOfDeviceMemory), "OutOfDeviceMemory");
  EXPECT_STREQ(error_code_name(ErrorCode::kNumericalFailure), "NumericalFailure");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "Internal");
}

TEST(Error, CheckArgThrowsWithLocation) {
  EXPECT_NO_THROW(check_arg(true, "fine"));
  try {
    check_arg(false, "must fail");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("must fail"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_support.cpp"), std::string::npos);
  }
}

TEST(Error, LiteralAndComposedMessagesCarryCallerLocation) {
  auto what_of = [](auto&& fail) -> std::string {
    try {
      fail();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
      return e.what();
    }
    ADD_FAILURE() << "expected throw";
    return "";
  };
  const int literal_line = __LINE__ + 1;
  const std::string literal = what_of([] { check_arg(false, "literal message"); });
  const int composed_line = __LINE__ + 1;
  const std::string composed = what_of([] { check_arg(false, "item " + std::to_string(42)); });
  EXPECT_NE(literal.find("literal message [" + std::string(__FILE__) + ":" +
                         std::to_string(literal_line) + "]"),
            std::string::npos)
      << literal;
  EXPECT_NE(composed.find("item 42 [" + std::string(__FILE__) + ":" +
                          std::to_string(composed_line) + "]"),
            std::string::npos)
      << composed;
}

TEST(Error, DeviceOutOfMemoryIsAnError) {
  try {
    throw DeviceOutOfMemory("buffer too big");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfDeviceMemory);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.contains(0));
  EXPECT_TRUE(seen.contains(3));
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(11);
  auto perm = rng.permutation(50);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(1.0, 1.0), Error);
  EXPECT_THROW(rng.uniform_int(2, 1), Error);
  EXPECT_THROW(rng.index(0), Error);
  EXPECT_THROW(rng.flip(1.5), Error);
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KiB");
  EXPECT_EQ(human_bytes(3ull << 30), "3.00 GiB");
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(human_seconds(2.5), "2.500 s");
  EXPECT_EQ(human_seconds(0.0015), "1.50 ms");
  EXPECT_EQ(human_seconds(2.5e-6), "2.50 us");
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(split_ws("  a  bb\tccc \n").size(), 3u);
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("ROWS section", "ROWS"));
  EXPECT_FALSE(starts_with("RO", "ROWS"));
  EXPECT_EQ(to_upper("mIxEd"), "MIXED");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  EXPECT_GE(t.elapsed(), 0.0);
  t.reset();
  EXPECT_LT(t.elapsed(), 1.0);
}

}  // namespace
}  // namespace gpumip
