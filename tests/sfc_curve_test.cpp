// Property tests for the space-filling-curve generators (paper Section 3).
//
// The central invariants — full coverage, 4-adjacency of consecutive cells,
// entry at (0,0) and exit at (P-1,0) — are exercised over every SFC-
// compatible side up to 108 and every nesting order, which covers pure
// Hilbert, pure m-Peano, and all mixed Hilbert-Peano schedules.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "sfc/curve.hpp"
#include "sfc/render.hpp"
#include "sfc/validate.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp::sfc;

TEST(Schedule, FactorsSides) {
  EXPECT_TRUE(is_sfc_compatible(2));
  EXPECT_TRUE(is_sfc_compatible(3));
  EXPECT_TRUE(is_sfc_compatible(8));    // paper Ne=8  -> Hilbert level 3
  EXPECT_TRUE(is_sfc_compatible(9));    // paper Ne=9  -> m-Peano level 2
  EXPECT_TRUE(is_sfc_compatible(16));   // paper Ne=16 -> Hilbert level 4
  EXPECT_TRUE(is_sfc_compatible(18));   // paper Ne=18 -> Hilbert-Peano
  EXPECT_FALSE(is_sfc_compatible(1));
  EXPECT_FALSE(is_sfc_compatible(5));
  EXPECT_FALSE(is_sfc_compatible(7));
  EXPECT_FALSE(is_sfc_compatible(10));  // 2 * 5
  EXPECT_FALSE(is_sfc_compatible(0));
  EXPECT_FALSE(is_sfc_compatible(-4));
}

TEST(Schedule, PaperTable1Levels) {
  // Paper Table 1: Ne=8 has Hilbert levels 3, m-Peano 0; Ne=9 has 0/2;
  // Ne=16 has 4/0; Ne=18 has 1/2.
  const auto count = [](const schedule& s) {
    int n2 = 0, n3 = 0;
    for (const refinement r : s) (r == refinement::hilbert2 ? n2 : n3)++;
    return std::pair(n2, n3);
  };
  EXPECT_EQ(count(*schedule_for(8)), std::pair(3, 0));
  EXPECT_EQ(count(*schedule_for(9)), std::pair(0, 2));
  EXPECT_EQ(count(*schedule_for(16)), std::pair(4, 0));
  EXPECT_EQ(count(*schedule_for(18)), std::pair(1, 2));
}

TEST(Schedule, SideRoundTrips) {
  for (const int side : {2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 54,
                         64, 72, 81, 96, 108}) {
    const auto s = schedule_for(side);
    ASSERT_TRUE(s.has_value()) << side;
    EXPECT_EQ(side_of(*s), side);
  }
}

TEST(Schedule, NestingOrdersPlaceLevelsAsRequested) {
  const auto s_peano = *schedule_for(12, nesting_order::peano_first);
  ASSERT_EQ(s_peano.size(), 3u);  // 12 = 3 * 2 * 2
  EXPECT_EQ(s_peano[0], refinement::peano3);
  EXPECT_EQ(s_peano[1], refinement::hilbert2);

  const auto s_hil = *schedule_for(12, nesting_order::hilbert_first);
  EXPECT_EQ(s_hil[0], refinement::hilbert2);
  EXPECT_EQ(s_hil[2], refinement::peano3);

  const auto s_mix = *schedule_for(36, nesting_order::interleaved);
  ASSERT_EQ(s_mix.size(), 4u);  // 36 = 3*2*3*2 interleaved
  EXPECT_EQ(s_mix[0], refinement::peano3);
  EXPECT_EQ(s_mix[1], refinement::hilbert2);
  EXPECT_EQ(s_mix[2], refinement::peano3);
  EXPECT_EQ(s_mix[3], refinement::hilbert2);
}

TEST(Curve, Level1HilbertIsTheClassicU) {
  const auto c = hilbert_curve(1);
  ASSERT_EQ(c.size(), 4u);
  // Enter (0,0), sweep the U, exit (1,0).
  EXPECT_EQ(c[0], (cell{0, 0}));
  EXPECT_EQ(c[1], (cell{0, 1}));
  EXPECT_EQ(c[2], (cell{1, 1}));
  EXPECT_EQ(c[3], (cell{1, 0}));
}

TEST(Curve, Level1PeanoMeanders) {
  const auto c = peano_curve(1);
  ASSERT_EQ(c.size(), 9u);
  EXPECT_EQ(c.front(), (cell{0, 0}));
  EXPECT_EQ(c.back(), (cell{2, 0}));
  EXPECT_TRUE(validate_curve(c, 3).ok);
}

TEST(Curve, Level2HilbertVerifies) {
  const auto c = hilbert_curve(2);
  const auto r = validate_curve(c, 4);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Curve, Level2PeanoVerifies) {
  const auto c = peano_curve(2);
  const auto r = validate_curve(c, 9);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Curve, PaperFigure5Size36) {
  // Paper Figure 5: a level-2 Hilbert-Peano curve connecting 36 sub-domains
  // (6x6 grid: one m-Peano level then one Hilbert level).
  const auto c = hilbert_peano_curve(6);
  ASSERT_EQ(c.size(), 36u);
  const auto r = validate_curve(c, 6);
  EXPECT_TRUE(r.ok) << r.detail;
}

// Exhaustive sweep: every SFC-compatible side up to 108, every nesting order.
class CurveProperty
    : public ::testing::TestWithParam<std::tuple<int, nesting_order>> {};

TEST_P(CurveProperty, CoverageAdjacencyEndpoints) {
  const auto [side, order] = GetParam();
  const auto s = schedule_for(side, order);
  ASSERT_TRUE(s.has_value());
  const auto curve = generate(*s);
  const auto r = validate_curve(curve, side);
  EXPECT_TRUE(r.ok) << "side " << side << ": " << r.detail;
}

TEST_P(CurveProperty, IndexIsInverse) {
  const auto [side, order] = GetParam();
  const auto curve = generate(*schedule_for(side, order));
  const auto index = curve_index(curve, side);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const cell c = curve[i];
    EXPECT_EQ(index[static_cast<std::size_t>(c.y) *
                        static_cast<std::size_t>(side) +
                    static_cast<std::size_t>(c.x)],
              static_cast<std::int64_t>(i));
  }
}

std::vector<int> sfc_sides_up_to(int limit) {
  std::vector<int> sides;
  for (int p = 2; p <= limit; ++p)
    if (is_sfc_compatible(p)) sides.push_back(p);
  return sides;
}

std::string curve_param_name(
    const ::testing::TestParamInfo<std::tuple<int, nesting_order>>& info) {
  const char* names[] = {"peano_first", "hilbert_first", "interleaved"};
  return "side" + std::to_string(std::get<0>(info.param)) + "_" +
         names[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllSides, CurveProperty,
    ::testing::Combine(::testing::ValuesIn(sfc_sides_up_to(108)),
                       ::testing::Values(nesting_order::peano_first,
                                         nesting_order::hilbert_first,
                                         nesting_order::interleaved)),
    curve_param_name);

TEST(Curve, LocalityBeatsRowMajor) {
  // A qualitative SFC property the partitioner relies on: contiguous curve
  // segments are spatially compact. Compare the mean squared distance of
  // cells 16 apart along the curve vs along a row-major order.
  const int side = 32;
  const auto curve = hilbert_curve(5);
  const auto dist2_at_lag = [&](auto&& pos, int lag) {
    double acc = 0;
    const int n = side * side - lag;
    for (int i = 0; i < n; ++i) {
      const cell a = pos(i), b = pos(i + lag);
      const double dx = a.x - b.x, dy = a.y - b.y;
      acc += dx * dx + dy * dy;
    }
    return acc / n;
  };
  const auto on_curve = [&](int i) { return curve[static_cast<std::size_t>(i)]; };
  const auto row_major = [&](int i) { return cell{i % side, i / side}; };
  EXPECT_LT(dist2_at_lag(on_curve, 16), 0.25 * dist2_at_lag(row_major, 16));
}

TEST(CurveIndex, RejectsCorruptCurves) {
  auto c = hilbert_curve(1);
  c[2] = c[1];  // duplicate visit
  EXPECT_THROW(curve_index(c, 2), sfp::contract_error);
  EXPECT_THROW(curve_index(hilbert_curve(1), 3), sfp::contract_error);
}

TEST(Verify, DetectsDiagonalStep) {
  std::vector<cell> c{{0, 0}, {1, 1}, {1, 0}, {0, 1}};
  const auto r = validate_curve_path(c, 2);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("not 4-adjacent"), std::string::npos);
}

TEST(Verify, DetectsWrongEndpoints) {
  // A valid snake that exits at (1,1) instead of (1,0).
  std::vector<cell> c{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_TRUE(validate_curve_path(c, 2).ok);
  EXPECT_FALSE(validate_curve(c, 2).ok);
}

TEST(Names, ScheduleNames) {
  EXPECT_EQ(schedule_name(*schedule_for(8)), "hilbert");
  EXPECT_EQ(schedule_name(*schedule_for(27)), "m-peano");
  EXPECT_EQ(schedule_name(*schedule_for(18)), "hilbert-peano");
}

TEST(Render, CurveArtHasExpectedSize) {
  const auto art = render_curve(hilbert_curve(2), 4);
  // 4 rows, each with 4 glyphs + 3 fillers + newline.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

TEST(Render, OrderGridShowsAllIndices) {
  const auto art = render_order(peano_curve(1), 3);
  for (const char* token : {"0", "4", "8"})
    EXPECT_NE(art.find(token), std::string::npos) << token;
}

}  // namespace
