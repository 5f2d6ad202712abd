// The SFC point query against its oracle: every position the table-driven
// query returns must equal the cell's index in the materialized curve —
// generate() / generate_factors() for one face, build_cube_curve() for the
// stitched cube — and the inverse query must map every position back to
// the cell (element) it came from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cube_curve.hpp"
#include "mesh/cubed_sphere.hpp"
#include "sfc/curve.hpp"
#include "sfc/point_query.hpp"
#include "sfc/transform.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using sfc::cell;
using sfc::dihedral;

constexpr sfc::nesting_order kOrders[] = {sfc::nesting_order::peano_first,
                                          sfc::nesting_order::hilbert_first,
                                          sfc::nesting_order::interleaved};

std::string order_name(sfc::nesting_order o) {
  switch (o) {
    case sfc::nesting_order::peano_first: return "peano_first";
    case sfc::nesting_order::hilbert_first: return "hilbert_first";
    case sfc::nesting_order::interleaved: return "interleaved";
  }
  return "?";
}

/// Cells of `curve` whose point query disagrees with their index.
template <class Query>
int misplaced(const std::vector<cell>& curve, const Query& query) {
  int bad = 0;
  for (std::size_t i = 0; i < curve.size(); ++i)
    bad += query(curve[i]) != static_cast<std::int64_t>(i);
  return bad;
}

TEST(CurvePosition, ScheduleMatchesGenerateOnEverySideTo96) {
  int sides = 0;
  for (int side = 2; side <= 96; ++side) {
    if (!sfc::is_sfc_compatible(side)) continue;
    ++sides;
    for (const sfc::nesting_order o : kOrders) {
      const sfc::schedule s = *sfc::schedule_for(side, o);
      const std::vector<cell> curve = sfc::generate(s);
      EXPECT_EQ(misplaced(curve,
                          [&](cell c) { return sfc::curve_position(s, c); }),
                0)
          << "side " << side << ", " << order_name(o);
    }
  }
  EXPECT_EQ(sides, 19);  // 2^n·3^m in [2, 96]
}

TEST(CurvePosition, FactorListsMatchGenerateFactors) {
  // Cinco, a synthesized factor 7, mixed with the paper's factors, and runs
  // of equal factors long enough to merge into one table.
  const std::vector<std::vector<int>> lists = {
      {5}, {5, 2}, {2, 5}, {3, 5, 2}, {7}, {7, 2},
      {2, 2, 2, 2, 2}, {3, 3, 3}, {2, 3, 3, 2, 2}};
  for (const std::vector<int>& f : lists) {
    const std::vector<cell> curve = sfc::generate_factors(f);
    EXPECT_EQ(misplaced(curve,
                        [&](cell c) {
                          return sfc::curve_position_factors(f, c);
                        }),
              0)
        << "factor list of side " << sfc::curve_locator(f).side();
  }
}

TEST(CurvePosition, OrientationStartsTheDescentInThatFrame) {
  for (const int side : {6, 16, 18}) {
    const sfc::schedule s = *sfc::schedule_for(side);
    const sfc::curve_locator locator(s);
    const std::vector<cell> base = sfc::generate(s);
    for (const dihedral t : sfc::all_dihedrals) {
      EXPECT_EQ(misplaced(sfc::apply(t, base, side),
                          [&](cell c) { return locator.position(c, t); }),
                0)
          << "side " << side << ", " << sfc::dihedral_name(t);
    }
  }
}

/// Cells of a side-`side` grid that cell_at(position(c, t), t) does not
/// return to, over all 8 orientations.
int unreturned_cells(const sfc::curve_locator& locator) {
  const int side = locator.side();
  int bad = 0;
  for (const dihedral t : sfc::all_dihedrals)
    for (int y = 0; y < side; ++y)
      for (int x = 0; x < side; ++x) {
        const cell c{x, y};
        bad += locator.cell_at(locator.position(c, t), t) != c;
      }
  return bad;
}

TEST(CurvePosition, CellAtInvertsPositionOnEverySideTo96) {
  int sides = 0;
  for (int side = 2; side <= 96; ++side) {
    if (!sfc::is_sfc_compatible(side)) continue;
    ++sides;
    for (const sfc::nesting_order o : kOrders) {
      const sfc::curve_locator locator(*sfc::schedule_for(side, o));
      EXPECT_EQ(unreturned_cells(locator), 0)
          << "side " << side << ", " << order_name(o);
    }
  }
  EXPECT_EQ(sides, 19);
}

TEST(CurvePosition, CellAtInvertsPositionForCincoAndFactorSeven) {
  // Cinco and factor 7 alone and mixed with the paper's factors, plus the
  // extended (Cinco) schedules, plus merged runs.
  const std::vector<std::vector<int>> lists = {
      {5}, {5, 2}, {2, 5}, {3, 5, 2}, {7}, {7, 2}, {7, 3, 2}, {5, 5},
      {2, 2, 2, 2, 2}, {3, 3, 3}, {2, 3, 3, 2, 2}};
  for (const std::vector<int>& f : lists)
    EXPECT_EQ(unreturned_cells(sfc::curve_locator(f)), 0)
        << "factor list of side " << sfc::curve_locator(f).side();
  for (const int side : {10, 15, 20, 30, 45, 90})
    EXPECT_EQ(unreturned_cells(
                  sfc::curve_locator(*sfc::extended_schedule_for(side))),
              0)
        << "extended side " << side;
}

TEST(CurvePosition, CellAtWalksTheGeneratedCurve) {
  // Against the materialized curve directly: position i of the reoriented
  // curve is apply(t, generate(s))[i].
  for (const int side : {6, 16, 18}) {
    const sfc::schedule s = *sfc::schedule_for(side);
    const sfc::curve_locator locator(s);
    const std::vector<cell> base = sfc::generate(s);
    for (const dihedral t : sfc::all_dihedrals) {
      const std::vector<cell> curve = sfc::apply(t, base, side);
      int bad = 0;
      for (std::size_t i = 0; i < curve.size(); ++i)
        bad += locator.cell_at(static_cast<std::int64_t>(i), t) != curve[i];
      EXPECT_EQ(bad, 0) << "side " << side << ", " << sfc::dihedral_name(t);
    }
  }
}

/// The cells for_each_cell visits from `first`, `count` of them.
std::vector<cell> walk(const sfc::curve_locator& locator, std::int64_t first,
                       std::int64_t count, dihedral t) {
  std::vector<cell> out;
  locator.for_each_cell(first, count, t, [&](cell c) { out.push_back(c); });
  return out;
}

/// Cells of the walk of `count` positions from `first` that differ from
/// `curve` there, plus 1 if the walk visits the wrong number of cells.
int walk_mismatches(const sfc::curve_locator& locator, dihedral t,
                    const std::vector<cell>& curve, std::int64_t first,
                    std::int64_t count) {
  int bad = 0;
  std::int64_t pos = first;
  locator.for_each_cell(first, count, t, [&](cell c) {
    bad += pos >= first + count || c != curve[static_cast<std::size_t>(pos)];
    ++pos;
  });
  return bad + (pos != first + count);
}

/// Walks of `locator` in orientation `t` that disagree with `curve`, the
/// curve generated in that orientation, or with cell_at: the whole face;
/// every window of one to three positions, so every carry of every merged
/// level is started and ended on either side of; and the tail from every
/// 17th position, which runs through the carries after a decoded start.
int misplaced_walks(const sfc::curve_locator& locator, dihedral t,
                    const std::vector<cell>& curve) {
  const auto n = static_cast<std::int64_t>(curve.size());
  int bad = walk(locator, 0, n, t) != curve;
  for (std::int64_t i = 0; i < n; ++i)
    bad += locator.cell_at(i, t) != curve[static_cast<std::size_t>(i)];
  for (std::int64_t first = 0; first < n; ++first)
    for (std::int64_t count = 1; count <= 3 && first + count <= n; ++count)
      bad += walk_mismatches(locator, t, curve, first, count);
  for (std::int64_t first = 0; first < n; first += 17)
    bad += walk_mismatches(locator, t, curve, first, n - first);
  return bad;
}

TEST(CurvePosition, WalkMatchesTheGeneratedCurveOnEverySideTo96) {
  int sides = 0;
  for (int side = 2; side <= 96; ++side) {
    if (!sfc::is_sfc_compatible(side)) continue;
    ++sides;
    for (const sfc::nesting_order o : kOrders) {
      const sfc::schedule s = *sfc::schedule_for(side, o);
      const sfc::curve_locator locator(s);
      const std::vector<cell> base = sfc::generate(s);
      for (const dihedral t : sfc::all_dihedrals)
        EXPECT_EQ(misplaced_walks(locator, t, sfc::apply(t, base, side)), 0)
            << "side " << side << ", " << order_name(o) << ", "
            << sfc::dihedral_name(t);
    }
  }
  EXPECT_EQ(sides, 19);
}

TEST(CurvePosition, WalkMatchesCincoAndFactorSevenCurves) {
  const auto check = [](const sfc::curve_locator& locator,
                        const std::vector<cell>& base) {
    for (const dihedral t : sfc::all_dihedrals)
      EXPECT_EQ(misplaced_walks(locator, t,
                                sfc::apply(t, base, locator.side())),
                0)
          << "side " << locator.side() << ", " << sfc::dihedral_name(t);
  };
  const std::vector<std::vector<int>> lists = {
      {5}, {5, 2}, {2, 5}, {3, 5, 2}, {7}, {7, 2}, {7, 3, 2}, {5, 5},
      {2, 2, 2, 2, 2}, {3, 3, 3}, {2, 3, 3, 2, 2}};
  for (const std::vector<int>& f : lists)
    check(sfc::curve_locator(f), sfc::generate_factors(f));
  for (const int side : {10, 15, 20, 30, 45, 90}) {
    const sfc::schedule s = *sfc::extended_schedule_for(side);
    check(sfc::curve_locator(s), sfc::generate(s));
  }
}

TEST(CurvePosition, WalkOfNothingAndOfTheSingleCell) {
  const sfc::curve_locator six(*sfc::schedule_for(6));
  for (const std::int64_t first : {0, 17, 36})  // 36: the end of the face
    EXPECT_TRUE(walk(six, first, 0, dihedral::identity).empty());
  // Side 1 (Ne = 1): the empty factor list is one cell.
  const sfc::curve_locator one;
  for (const dihedral t : sfc::all_dihedrals) {
    EXPECT_EQ(walk(one, 0, 1, t), (std::vector<cell>{cell{0, 0}}));
    EXPECT_TRUE(walk(one, 1, 0, t).empty());
  }
}

/// Elements of `curve` whose key disagrees with their curve position.
int misplaced_elements(const core::cube_curve& curve,
                       const mesh::cubed_sphere& mesh) {
  const core::cube_curve_spec spec = core::spec_of(curve);
  int bad = 0;
  for (std::size_t i = 0; i < curve.order.size(); ++i)
    bad += core::curve_position_of(spec, mesh, curve.order[i]) !=
           static_cast<std::int64_t>(i);
  return bad;
}

/// Positions of `curve` where element_at disagrees with the curve, or does
/// not invert curve_position_of.
int misplaced_positions(const core::cube_curve& curve,
                        const mesh::cubed_sphere& mesh) {
  const core::cube_curve_spec spec = core::spec_of(curve);
  int bad = 0;
  for (std::size_t i = 0; i < curve.order.size(); ++i) {
    const int e = curve.order[i];
    bad += core::element_at(spec, mesh, static_cast<std::int64_t>(i)) != e;
    bad += core::element_at(spec, mesh,
                            core::curve_position_of(spec, mesh, e)) != e;
  }
  return bad;
}

TEST(CurvePosition, ElementAtInvertsKeysToNe48AndOnTheExtendedCurve) {
  int meshes = 0;
  for (int ne = 1; ne <= 48; ++ne) {
    if (ne > 1 && !sfc::is_sfc_compatible(ne)) continue;
    const mesh::cubed_sphere m(ne);
    for (const sfc::nesting_order o : kOrders) {
      EXPECT_EQ(misplaced_positions(core::build_cube_curve(m, o), m), 0)
          << "Ne " << ne << ", " << order_name(o);
      ++meshes;
    }
  }
  EXPECT_EQ(meshes, 3 * 15);
  for (const int ne : {10, 15, 20, 30}) {
    const mesh::cubed_sphere m(ne);
    EXPECT_EQ(misplaced_positions(core::build_cube_curve_extended(m), m), 0)
        << "extended Ne " << ne;
  }
}

/// Elements for_each_element visits in [first, last).
std::vector<int> element_walk(const core::cube_curve_spec& spec,
                              const mesh::cubed_sphere& mesh,
                              std::int64_t first, std::int64_t last) {
  std::vector<int> out;
  core::for_each_element(spec, mesh, first, last,
                         [&](int e) { out.push_back(e); });
  return out;
}

/// Ranges of `curve` whose element walk disagrees with element_at: the
/// whole cube, every empty range, and every range of up to three positions
/// on either side of each face block's first position.
int misplaced_element_walks(const core::cube_curve& curve,
                            const mesh::cubed_sphere& mesh) {
  const core::cube_curve_spec spec = core::spec_of(curve);
  const auto k = static_cast<std::int64_t>(curve.order.size());
  const auto at = [&](std::int64_t first, std::int64_t last) {
    std::vector<int> out;
    for (std::int64_t pos = first; pos < last; ++pos)
      out.push_back(core::element_at(spec, mesh, pos));
    return out;
  };
  int bad = element_walk(spec, mesh, 0, k) != curve.order;
  bad += at(0, k) != curve.order;
  for (std::int64_t pos = 0; pos <= k; ++pos)
    bad += !element_walk(spec, mesh, pos, pos).empty();
  const std::int64_t area = std::int64_t{mesh.ne()} * mesh.ne();
  for (std::int64_t b = 0; b <= k; b += area)
    for (std::int64_t first = std::max<std::int64_t>(0, b - 3); first <= b;
         ++first)
      for (std::int64_t last = b; last <= std::min(k, b + 3); ++last)
        bad += element_walk(spec, mesh, first, last) != at(first, last);
  // Across several face blocks at once.
  bad += element_walk(spec, mesh, area - 1, 4 * area + 1) !=
         at(area - 1, 4 * area + 1);
  return bad;
}

TEST(CurvePosition, ElementWalkMatchesElementAtAcrossFaceBlocks) {
  for (const int ne : {1, 2, 3, 6, 8, 12, 24}) {
    const mesh::cubed_sphere m(ne);
    for (const sfc::nesting_order o : kOrders)
      EXPECT_EQ(misplaced_element_walks(core::build_cube_curve(m, o), m), 0)
          << "Ne " << ne << ", " << order_name(o);
  }
  for (const int ne : {10, 15}) {
    const mesh::cubed_sphere m(ne);
    EXPECT_EQ(misplaced_element_walks(core::build_cube_curve_extended(m), m),
              0)
        << "extended Ne " << ne;
  }
}

TEST(CurvePosition, CubeKeysMatchTheStitchedCurveToNe48) {
  int meshes = 0;
  for (int ne = 1; ne <= 48; ++ne) {
    if (ne > 1 && !sfc::is_sfc_compatible(ne)) continue;
    const mesh::cubed_sphere m(ne);
    for (const sfc::nesting_order o : kOrders) {
      EXPECT_EQ(misplaced_elements(core::build_cube_curve(m, o), m), 0)
          << "Ne " << ne << ", " << order_name(o);
      ++meshes;
    }
  }
  EXPECT_EQ(meshes, 3 * 15);  // Ne = 1 and 2^n·3^m in [2, 48]
}

TEST(CurvePosition, CubeKeysMatchTheExtendedCurve) {
  for (const int ne : {10, 15, 20, 30}) {
    const mesh::cubed_sphere m(ne);
    EXPECT_EQ(misplaced_elements(core::build_cube_curve_extended(m), m), 0)
        << "Ne " << ne;
  }
}

TEST(CurvePosition, SearchedSpecKeysMatchTheBuiltCurve) {
  // The spec every distributed rank builds from the mesh alone must key
  // exactly like the spec of the materialized curve.
  const mesh::cubed_sphere m(24);
  const core::cube_curve curve = core::build_cube_curve(m);
  const core::cube_curve_spec spec = core::build_cube_curve_spec(m);
  for (std::size_t i = 0; i < curve.order.size(); ++i)
    ASSERT_EQ(core::curve_position_of(spec, m, curve.order[i]),
              static_cast<std::int64_t>(i));
}

TEST(CurvePosition, RejectsQueriesOffTheCurve) {
  const sfc::schedule s = *sfc::schedule_for(6);
  EXPECT_THROW((void)sfc::curve_position(s, cell{6, 0}), contract_error);
  EXPECT_THROW((void)sfc::curve_position(s, cell{0, -1}), contract_error);
  EXPECT_THROW((void)sfc::curve_position_factors({2, 1}, cell{0, 0}),
               contract_error);
  EXPECT_THROW((void)sfc::curve_position_factors({17}, cell{0, 0}),
               contract_error);
  EXPECT_THROW(sfc::curve_locator(std::vector<int>(21, 2)), contract_error);
  const sfc::curve_locator six(s);
  EXPECT_THROW((void)six.cell_at(-1), contract_error);
  EXPECT_THROW((void)six.cell_at(36), contract_error);
  const auto nothing = [](cell) {};
  EXPECT_THROW(six.for_each_cell(-1, 1, dihedral::identity, nothing),
               contract_error);
  EXPECT_THROW(six.for_each_cell(0, -1, dihedral::identity, nothing),
               contract_error);
  EXPECT_THROW(six.for_each_cell(35, 2, dihedral::identity, nothing),
               contract_error);
  EXPECT_THROW(six.for_each_cell(37, 0, dihedral::identity, nothing),
               contract_error);
  EXPECT_THROW(six.for_each_cell(0, 1, static_cast<dihedral>(8), nothing),
               contract_error);

  const mesh::cubed_sphere m(6);
  const core::cube_curve_spec spec = core::build_cube_curve_spec(m);
  EXPECT_THROW((void)core::curve_position_of(spec, m, -1), contract_error);
  EXPECT_THROW((void)core::curve_position_of(spec, m, m.num_elements()),
               contract_error);
  // A spec compiled for another Ne.
  const mesh::cubed_sphere other(8);
  EXPECT_THROW((void)core::curve_position_of(spec, other, 0), contract_error);
  EXPECT_THROW((void)core::element_at(spec, m, -1), contract_error);
  EXPECT_THROW((void)core::element_at(spec, m, m.num_elements()),
               contract_error);
  EXPECT_THROW((void)core::element_at(spec, other, 0), contract_error);
  const auto none = [](int) {};
  EXPECT_THROW(core::for_each_element(spec, m, -1, 0, none), contract_error);
  EXPECT_THROW(core::for_each_element(spec, m, 2, 1, none), contract_error);
  EXPECT_THROW(core::for_each_element(spec, m, 0, m.num_elements() + 1, none),
               contract_error);
  EXPECT_THROW(core::for_each_element(spec, other, 0, 1, none),
               contract_error);
}

}  // namespace
