// Tests for generator synthesis: derived tables must obey the same
// invariants as the hand-built Hilbert/m-Peano generators, and the curves
// they produce must verify at every factor and in arbitrary nestings —
// the "Cinco" extension (factor 5, as later added to NCAR's HOMME) and
// beyond.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <thread>

#include "sfc/curve.hpp"
#include "sfc/generator.hpp"
#include "sfc/validate.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp::sfc;

/// Structural validation of a generator table for factor f, mirroring the
/// corner-chaining rules derive_generator() searches under.
void validate_table(const std::vector<child_frame>& table, int f) {
  ASSERT_EQ(table.size(), static_cast<std::size_t>(f * f));
  std::set<std::pair<int, int>> covered;
  for (std::size_t k = 0; k < table.size(); ++k) {
    const child_frame& c = table[k];
    // A' and B' must be perpendicular unit steps.
    EXPECT_EQ(std::abs(c.aa) + std::abs(c.ab), 1);
    EXPECT_EQ(std::abs(c.ba) + std::abs(c.bb), 1);
    EXPECT_EQ(c.aa * c.ba + c.ab * c.bb, 0);
    // Covered cell: lower-left corner of the frame's span.
    const int cx = c.oa + std::min(0, c.aa + c.ba);
    const int cy = c.ob + std::min(0, c.ab + c.bb);
    EXPECT_GE(cx, 0);
    EXPECT_LT(cx, f);
    EXPECT_GE(cy, 0);
    EXPECT_LT(cy, f);
    EXPECT_TRUE(covered.insert({cx, cy}).second) << "duplicate cell at " << k;
    // Chain: exit corner of k equals entry corner of k+1.
    if (k + 1 < table.size()) {
      EXPECT_EQ(c.oa + c.aa, table[k + 1].oa) << "chain broken at " << k;
      EXPECT_EQ(c.ob + c.ab, table[k + 1].ob) << "chain broken at " << k;
    }
  }
  // Entry at the origin corner; exit at origin + A.
  EXPECT_EQ(table.front().oa, 0);
  EXPECT_EQ(table.front().ob, 0);
  EXPECT_EQ(table.back().oa + table.back().aa, f);
  EXPECT_EQ(table.back().ob + table.back().ab, 0);
}

TEST(Generator, HandTablesAreStructurallyValid) {
  validate_table(generator_for(2), 2);
  validate_table(generator_for(3), 3);
}

class DerivedGenerator : public ::testing::TestWithParam<int> {};

TEST_P(DerivedGenerator, SynthesisSucceedsAndIsValid) {
  const int f = GetParam();
  const auto table = derive_generator(f);
  ASSERT_FALSE(table.empty()) << "no generator found for factor " << f;
  validate_table(table, f);
}

TEST_P(DerivedGenerator, SingleLevelCurveVerifies) {
  const int f = GetParam();
  const auto curve = generate_factors({f});
  const auto r = validate_curve(curve, f);
  EXPECT_TRUE(r.ok) << "factor " << f << ": " << r.detail;
}

TEST_P(DerivedGenerator, TwoLevelSelfNestingVerifies) {
  const int f = GetParam();
  if (f > 7) return;  // keep test runtime bounded (f^4 cells)
  const auto curve = generate_factors({f, f});
  const auto r = validate_curve(curve, f * f);
  EXPECT_TRUE(r.ok) << "factor " << f << ": " << r.detail;
}

INSTANTIATE_TEST_SUITE_P(Factors, DerivedGenerator,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
                         ::testing::PrintToStringParamName());

TEST(Generator, MixedFactorNestingsVerify) {
  // Any mix of factors with generators nests into a valid curve — the
  // invariant behind the paper's Hilbert-Peano construction, generalized.
  const std::vector<std::vector<int>> schedules = {
      {5, 2},       // side 10
      {2, 5},       // side 10, opposite order
      {5, 3},       // side 15
      {5, 2, 2},    // side 20
      {5, 3, 2},    // side 30 (HOMME's Ne=30 case)
      {7, 2},       // side 14 — beyond HOMME
      {3, 5, 2},    // side 30, different order
  };
  for (const auto& factors : schedules) {
    int side = 1;
    for (const int f : factors) side *= f;
    const auto curve = generate_factors(factors);
    const auto r = validate_curve(curve, side);
    EXPECT_TRUE(r.ok) << "side " << side << ": " << r.detail;
  }
}

TEST(Generator, CachedLookupMatchesDerivation) {
  const auto& cached = generator_for(5);
  const auto derived = derive_generator(5);
  EXPECT_EQ(cached, derived);
}

TEST(Generator, ConcurrentFirstLookupsShareOneTable) {
  // Factor 7's table is synthesized by whichever thread gets there first;
  // every thread must see that one table.
  std::array<const std::vector<child_frame>*, 4> seen{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t)
    threads.emplace_back([&seen, t] { seen[t] = &generator_for(7); });
  for (std::thread& t : threads) t.join();
  for (const auto* table : seen) EXPECT_EQ(table, seen[0]);
  EXPECT_EQ(*seen[0], derive_generator(7));
}

TEST(Generator, Preconditions) {
  EXPECT_THROW(derive_generator(1), sfp::contract_error);
  EXPECT_THROW(derive_generator(17), sfp::contract_error);
  EXPECT_THROW((void)generator_for(1), sfp::contract_error);
  EXPECT_THROW((void)generator_for(17), sfp::contract_error);
  EXPECT_FALSE(has_generator(1));
  EXPECT_TRUE(has_generator(5));
  EXPECT_TRUE(has_generator(2));
}

// ---- extended schedules ------------------------------------------------------

TEST(ExtendedSchedule, CoversFactorFive) {
  for (const int side : {5, 10, 15, 20, 25, 30, 45, 60, 90}) {
    const auto s = extended_schedule_for(side);
    ASSERT_TRUE(s.has_value()) << side;
    EXPECT_EQ(side_of(*s), side);
    const auto curve = generate(*s);
    const auto r = validate_curve(curve, side);
    EXPECT_TRUE(r.ok) << "side " << side << ": " << r.detail;
  }
  EXPECT_TRUE(is_sfc_compatible_extended(10));
  EXPECT_FALSE(is_sfc_compatible(10));
  EXPECT_FALSE(is_sfc_compatible_extended(7));   // 7 needs generate_factors
  EXPECT_FALSE(is_sfc_compatible_extended(1));
}

TEST(ExtendedSchedule, NamesIncludeCinco) {
  EXPECT_EQ(schedule_name(*extended_schedule_for(5)), "cinco");
  EXPECT_EQ(schedule_name(*extended_schedule_for(30)), "hilbert-peano-cinco");
  EXPECT_EQ(schedule_name(*extended_schedule_for(12)), "hilbert-peano");
}

TEST(ExtendedSchedule, LargerFactorsRefineFirst) {
  const auto s = extended_schedule_for(30);
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->size(), 3u);
  EXPECT_EQ((*s)[0], refinement::cinco5);
  EXPECT_EQ((*s)[1], refinement::peano3);
  EXPECT_EQ((*s)[2], refinement::hilbert2);
}

}  // namespace
