// Unit tests for src/util: contracts, stats (incl. the paper's LB metric),
// table formatting, RNG determinism, CLI parsing.

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "util/cli.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace sfp;

TEST(Require, ThrowsContractErrorWithContext) {
  try {
    SFP_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(Require, PassesOnTrue) {
  EXPECT_NO_THROW(SFP_REQUIRE(true, "never fires"));
}

// ---- stats ----------------------------------------------------------------

TEST(Stats, BasicMoments) {
  const std::vector<int> v{1, 2, 3, 4};
  const std::span<const int> s(v);
  EXPECT_DOUBLE_EQ(sum_of(s), 10.0);
  EXPECT_DOUBLE_EQ(mean_of(s), 2.5);
  EXPECT_DOUBLE_EQ(max_of(s), 4.0);
  EXPECT_DOUBLE_EQ(min_of(s), 1.0);
}

TEST(Stats, LoadBalancePerfect) {
  const std::vector<int> v{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(load_balance(std::span<const int>(v)), 0.0);
}

TEST(Stats, LoadBalanceMatchesPaperFormula) {
  // LB(S) = (max - avg) / max; S = {2, 1, 1}: max=2, avg=4/3 -> LB = 1/3.
  const std::vector<int> v{2, 1, 1};
  EXPECT_NEAR(load_balance(std::span<const int>(v)), 1.0 / 3.0, 1e-12);
}

TEST(Stats, LoadBalanceAllZeroIsBalanced) {
  const std::vector<int> v{0, 0};
  EXPECT_DOUBLE_EQ(load_balance(std::span<const int>(v)), 0.0);
}

TEST(Stats, LoadBalanceApproachesOneWhenOneBucketDominates) {
  const std::vector<int> v{1000, 0, 0, 0};
  EXPECT_NEAR(load_balance(std::span<const int>(v)), 0.75, 1e-12);
}

TEST(Stats, EmptySpanThrows) {
  const std::vector<int> v;
  EXPECT_THROW(mean_of(std::span<const int>(v)), contract_error);
  EXPECT_THROW(load_balance(std::span<const int>(v)), contract_error);
}

TEST(Stats, StdevOfConstantIsZero) {
  const std::vector<double> v{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(stdev_of(std::span<const double>(v)), 0.0);
}

// ---- table ------------------------------------------------------------------

TEST(Table, AlignsColumnsAndRightAlignsNumbers) {
  table t({"metric", "value"});
  t.new_row().add("LB").add(0.0625, 4);
  t.new_row().add("edgecut").add(std::int64_t{6038});
  const std::string s = t.str();
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("0.0625"), std::string::npos);
  EXPECT_NE(s.find("6038"), std::string::npos);
  EXPECT_NE(s.find("-------"), std::string::npos);  // header rule
}

TEST(Table, RejectsTooManyCells) {
  table t({"only"});
  t.new_row().add("x");
  EXPECT_THROW(t.add("overflow"), contract_error);
}

TEST(Table, RejectsAddWithoutRow) {
  table t({"a"});
  EXPECT_THROW(t.add("x"), contract_error);
}

TEST(Table, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(17.7 * 1024 * 1024), "17.7 MB");
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(13), 13u);
  }
  EXPECT_EQ(r.below(1), 0u);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, UniformInUnitInterval) {
  rng r(9);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.05);  // should explore the interval
  EXPECT_GT(hi, 0.95);
}

TEST(Rng, BelowIsRoughlyUniform) {
  rng r(123);
  std::array<int, 8> histogram{};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i)
    ++histogram[static_cast<std::size_t>(r.below(8))];
  for (const int h : histogram) {
    EXPECT_GT(h, kDraws / 8 - 800);
    EXPECT_LT(h, kDraws / 8 + 800);
  }
}

// ---- cli -------------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "positional", "--ne=16", "--nproc", "768",
                        "--verbose"};
  cli_args args(6, argv);
  EXPECT_EQ(args.get_int_or("ne", 0), 16);
  EXPECT_EQ(args.get_int_or("nproc", 0), 768);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool_or("verbose", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  cli_args args(1, argv);
  EXPECT_EQ(args.get_int_or("missing", 5), 5);
  EXPECT_DOUBLE_EQ(args.get_double_or("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_or("missing", "dflt"), "dflt");
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, DoubleAndBoolValues) {
  const char* argv[] = {"prog", "--alpha=1.5", "--flag=false", "--on=true"};
  cli_args args(4, argv);
  EXPECT_DOUBLE_EQ(args.get_double_or("alpha", 0.0), 1.5);
  EXPECT_FALSE(args.get_bool_or("flag", true));
  EXPECT_TRUE(args.get_bool_or("on", false));
}

}  // namespace
