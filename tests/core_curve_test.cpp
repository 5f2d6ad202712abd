// Tests for the cube stitching: a single continuous space-filling curve over
// all six faces of the cubed-sphere (paper Section 3, Figure 6).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/cube_curve.hpp"
#include "mesh/cubed_sphere.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::core;

class CubeCurveProperty : public ::testing::TestWithParam<int> {};

TEST_P(CubeCurveProperty, ContinuousTraversalOfAllElements) {
  const int ne = GetParam();
  const mesh::cubed_sphere m(ne);
  const cube_curve c = build_cube_curve(m);
  EXPECT_EQ(c.order.size(), static_cast<std::size_t>(m.num_elements()));
  std::string error;
  EXPECT_TRUE(verify_cube_curve(m, c.order, &error)) << "Ne=" << ne << ": "
                                                     << error;
}

TEST_P(CubeCurveProperty, VisitsFacesInContiguousBlocks) {
  const int ne = GetParam();
  const mesh::cubed_sphere m(ne);
  const cube_curve c = build_cube_curve(m);
  const int per_face = ne * ne;
  for (int pos = 0; pos < 6; ++pos) {
    const int face = c.face_order[static_cast<std::size_t>(pos)];
    for (int i = 0; i < per_face; ++i) {
      const int e = c.order[static_cast<std::size_t>(pos * per_face + i)];
      EXPECT_EQ(m.element_of(e).face, face);
    }
  }
  // All six faces appear exactly once in the order.
  std::set<int> faces(c.face_order.begin(), c.face_order.end());
  EXPECT_EQ(faces.size(), 6u);
}

TEST_P(CubeCurveProperty, CurveIsClosed) {
  // The stitcher prefers closed curves; they exist for every compatible Ne
  // (this test doubles as a regression check on that claim).
  const int ne = GetParam();
  const mesh::cubed_sphere m(ne);
  const cube_curve c = build_cube_curve(m);
  EXPECT_TRUE(c.closed) << "Ne=" << ne;
  if (c.closed) {
    bool adjacent = false;
    for (int e = 0; e < 4; ++e)
      adjacent |= m.edge_neighbor(c.order.back(), e) == c.order.front();
    EXPECT_TRUE(adjacent);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CubeCurveProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24),
                         ::testing::PrintToStringParamName());

TEST(CubeCurve, AllNestingOrdersStitch) {
  const mesh::cubed_sphere m(12);
  for (const auto order :
       {sfc::nesting_order::peano_first, sfc::nesting_order::hilbert_first,
        sfc::nesting_order::interleaved}) {
    const cube_curve c = build_cube_curve(m, order);
    std::string error;
    EXPECT_TRUE(verify_cube_curve(m, c.order, &error)) << error;
  }
}

TEST(CubeCurve, ExplicitScheduleMustMatchNe) {
  const mesh::cubed_sphere m(4);
  const auto wrong = sfc::schedule_for(8);
  EXPECT_THROW(build_cube_curve(m, *wrong), contract_error);
}

TEST(CubeCurve, IncompatibleNeRejected) {
  const mesh::cubed_sphere m(5);
  EXPECT_THROW(build_cube_curve(m), contract_error);
}

TEST(CubeCurve, VerifyDetectsBrokenOrders) {
  const mesh::cubed_sphere m(2);
  cube_curve c = build_cube_curve(m);
  std::string error;

  auto too_short = c.order;
  too_short.pop_back();
  EXPECT_FALSE(verify_cube_curve(m, too_short, &error));

  auto duplicated = c.order;
  duplicated[1] = duplicated[0];
  EXPECT_FALSE(verify_cube_curve(m, duplicated, &error));
  EXPECT_NE(error.find("twice"), std::string::npos);

  auto teleport = c.order;
  std::swap(teleport[5], teleport[17]);
  EXPECT_FALSE(verify_cube_curve(m, teleport, &error));
}

TEST(CubeCurve, ExtendedSchedulesStitchOnCincoMeshes) {
  // Ne with a factor of 5 — beyond the paper's 2^n 3^m rule — must stitch
  // into a continuous curve just like the paper's resolutions.
  for (const int ne : {5, 10, 15, 20}) {
    const mesh::cubed_sphere m(ne);
    const cube_curve c = build_cube_curve_extended(m);
    std::string error;
    EXPECT_TRUE(verify_cube_curve(m, c.order, &error)) << "Ne=" << ne << ": "
                                                       << error;
    EXPECT_TRUE(c.closed) << "Ne=" << ne;
  }
  // Paper-compatible Ne routes through the same entry point unchanged.
  const mesh::cubed_sphere m8(8);
  const cube_curve c8 = build_cube_curve_extended(m8);
  EXPECT_EQ(c8.order, build_cube_curve(m8).order);
  // Still rejects hopeless sides.
  const mesh::cubed_sphere m7(7);
  EXPECT_THROW(build_cube_curve_extended(m7), contract_error);
}

TEST(CubeCurve, DeterministicAcrossCalls) {
  const mesh::cubed_sphere m(8);
  const cube_curve a = build_cube_curve(m);
  const cube_curve b = build_cube_curve(m);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.face_order, b.face_order);
}

TEST(CubeCurve, PaperResolutionsStitch) {
  // The four resolutions of paper Table 1.
  for (const int ne : {8, 9, 16, 18}) {
    const mesh::cubed_sphere m(ne);
    const cube_curve c = build_cube_curve(m);
    std::string error;
    EXPECT_TRUE(verify_cube_curve(m, c.order, &error)) << "Ne=" << ne << ": "
                                                       << error;
    EXPECT_EQ(sfc::schedule_name(c.face_schedule),
              ne == 9 ? "m-peano"
                      : (ne == 18 ? "hilbert-peano" : "hilbert"));
  }
}

}  // namespace
