// Tests for the dihedral group D4 acting on grid cells.

#include <gtest/gtest.h>

#include <set>

#include "sfc/curve.hpp"
#include "sfc/transform.hpp"
#include "sfc/validate.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp::sfc;

TEST(Dihedral, BasicImages) {
  const int side = 4;
  const cell c{1, 0};
  EXPECT_EQ(apply(dihedral::identity, c, side), (cell{1, 0}));
  EXPECT_EQ(apply(dihedral::rot90, c, side), (cell{3, 1}));
  EXPECT_EQ(apply(dihedral::rot180, c, side), (cell{2, 3}));
  EXPECT_EQ(apply(dihedral::rot270, c, side), (cell{0, 2}));
  EXPECT_EQ(apply(dihedral::flip_x, c, side), (cell{2, 0}));
  EXPECT_EQ(apply(dihedral::flip_y, c, side), (cell{1, 3}));
  EXPECT_EQ(apply(dihedral::transpose, c, side), (cell{0, 1}));
  EXPECT_EQ(apply(dihedral::anti_transpose, c, side), (cell{3, 2}));
}

TEST(Dihedral, EachIsABijection) {
  const int side = 5;
  for (const dihedral t : all_dihedrals) {
    std::set<std::pair<int, int>> images;
    for (int x = 0; x < side; ++x)
      for (int y = 0; y < side; ++y) {
        const cell i = apply(t, {x, y}, side);
        EXPECT_GE(i.x, 0);
        EXPECT_LT(i.x, side);
        EXPECT_GE(i.y, 0);
        EXPECT_LT(i.y, side);
        images.insert({i.x, i.y});
      }
    EXPECT_EQ(images.size(), static_cast<std::size_t>(side * side))
        << dihedral_name(t);
  }
}

TEST(Dihedral, ComposeMatchesSequentialApplication) {
  const int side = 7;
  for (const dihedral a : all_dihedrals) {
    for (const dihedral b : all_dihedrals) {
      const dihedral ab = compose(a, b);
      for (const cell c : {cell{0, 0}, cell{3, 1}, cell{6, 6}, cell{2, 5}}) {
        EXPECT_EQ(apply(ab, c, side), apply(a, apply(b, c, side), side))
            << dihedral_name(a) << " after " << dihedral_name(b);
      }
    }
  }
}

TEST(Dihedral, InverseUndoes) {
  const int side = 6;
  for (const dihedral t : all_dihedrals) {
    const dihedral inv = inverse(t);
    for (int x = 0; x < side; ++x)
      for (int y = 0; y < side; ++y)
        EXPECT_EQ(apply(inv, apply(t, {x, y}, side), side), (cell{x, y}));
  }
}

TEST(Dihedral, GroupClosureAndIdentity) {
  for (const dihedral a : all_dihedrals) {
    EXPECT_EQ(compose(a, dihedral::identity), a);
    EXPECT_EQ(compose(dihedral::identity, a), a);
  }
  // rot90 has order 4.
  const dihedral r2 = compose(dihedral::rot90, dihedral::rot90);
  EXPECT_EQ(r2, dihedral::rot180);
  EXPECT_EQ(compose(r2, r2), dihedral::identity);
  // Reflections are involutions.
  for (const dihedral t : {dihedral::flip_x, dihedral::flip_y,
                           dihedral::transpose, dihedral::anti_transpose})
    EXPECT_EQ(compose(t, t), dihedral::identity);
}

TEST(Dihedral, TransformedCurveKeepsAdjacency) {
  const auto base = hilbert_curve(3);
  for (const dihedral t : all_dihedrals) {
    const auto moved = apply(t, base, 8);
    const auto r = validate_curve_path(moved, 8);
    EXPECT_TRUE(r.ok) << dihedral_name(t) << ": " << r.detail;
  }
}

TEST(Dihedral, CornersMapToCorners) {
  const int side = 9;
  const std::set<std::pair<int, int>> corners{
      {0, 0}, {side - 1, 0}, {0, side - 1}, {side - 1, side - 1}};
  for (const dihedral t : all_dihedrals) {
    for (const auto& [x, y] : corners) {
      const cell i = apply(t, {x, y}, side);
      EXPECT_TRUE(corners.count({i.x, i.y})) << dihedral_name(t);
    }
  }
}

TEST(Dihedral, RejectsOutOfRange) {
  EXPECT_THROW(apply(dihedral::rot90, {5, 0}, 4), sfp::contract_error);
  EXPECT_THROW(apply(dihedral::rot90, {-1, 0}, 4), sfp::contract_error);
}

}  // namespace
