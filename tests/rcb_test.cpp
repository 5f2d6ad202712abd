// Tests for the RCB geometric partitioner baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mesh/cubed_sphere.hpp"
#include "mgp/geometric.hpp"
#include "partition/metrics.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;
using namespace sfp::mgp;

std::vector<point3> cube_sphere_centers(const mesh::cubed_sphere& m) {
  std::vector<point3> pts(static_cast<std::size_t>(m.num_elements()));
  for (int e = 0; e < m.num_elements(); ++e) {
    const mesh::vec3 c = m.element_center_sphere(e);
    pts[static_cast<std::size_t>(e)] = {c.x, c.y, c.z};
  }
  return pts;
}

TEST(Rcb, EqualCountsOnUniformWeights) {
  const mesh::cubed_sphere m(4);
  const auto pts = cube_sphere_centers(m);
  for (const int k : {2, 4, 8, 16, 32, 96}) {
    const auto p = recursive_coordinate_bisection(pts, {}, k);
    const auto sizes = partition::part_sizes(p);
    const auto mx = *std::max_element(sizes.begin(), sizes.end());
    const auto mn = *std::min_element(sizes.begin(), sizes.end());
    EXPECT_LE(mx - mn, 1) << "k=" << k;
    EXPECT_TRUE(partition::all_parts_nonempty(p));
  }
}

TEST(Rcb, WeightedSplitBalancesWeight) {
  std::vector<point3> pts;
  std::vector<graph::weight> w;
  // 10 collinear points, last one heavy.
  for (int i = 0; i < 10; ++i) {
    pts.push_back({static_cast<double>(i), 0.0, 0.0});
    w.push_back(i == 9 ? 9 : 1);
  }
  const auto p = recursive_coordinate_bisection(pts, w, 2);
  // Total weight 18; the heavy point alone should form the right side
  // together with at most one light companion.
  graph::weight w0 = 0, w1 = 0;
  for (int i = 0; i < 10; ++i)
    ((p.part_of[static_cast<std::size_t>(i)] == 0) ? w0 : w1) +=
        w[static_cast<std::size_t>(i)];
  EXPECT_LE(std::abs(w0 - w1), 2);
}

TEST(Rcb, PartsAreSpatiallyCompact) {
  // Each part's bounding-box diagonal must be far below the domain's: RCB
  // parts are axis-aligned boxes.
  const mesh::cubed_sphere m(8);
  const auto pts = cube_sphere_centers(m);
  const auto p = recursive_coordinate_bisection(pts, {}, 24);
  for (int part = 0; part < 24; ++part) {
    point3 lo{2, 2, 2}, hi{-2, -2, -2};
    int count = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (p.part_of[i] != part) continue;
      ++count;
      for (int a = 0; a < 3; ++a) {
        lo[static_cast<std::size_t>(a)] = std::min(lo[static_cast<std::size_t>(a)], pts[i][static_cast<std::size_t>(a)]);
        hi[static_cast<std::size_t>(a)] = std::max(hi[static_cast<std::size_t>(a)], pts[i][static_cast<std::size_t>(a)]);
      }
    }
    ASSERT_GT(count, 0);
    const double diag = std::hypot(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]);
    EXPECT_LT(diag, 1.8) << "part " << part;  // sphere diameter = 2
  }
}

TEST(Rcb, CutQualityBeatsRandomAssignment) {
  const mesh::cubed_sphere m(8);
  const auto pts = cube_sphere_centers(m);
  const auto dual = m.dual_graph();
  const auto p = recursive_coordinate_bisection(pts, {}, 16);
  const auto m_rcb = partition::compute_metrics(dual, p);

  rng r(4);
  partition::partition random_p(16, {});
  random_p.part_of.resize(pts.size());
  for (auto& label : random_p.part_of)
    label = static_cast<graph::vid>(r.below(16));
  const auto m_rand = partition::compute_metrics(dual, random_p);
  EXPECT_LT(m_rcb.edgecut_weight, m_rand.edgecut_weight / 2);
}

TEST(Rcb, DeterministicAndValid) {
  const mesh::cubed_sphere m(4);
  const auto pts = cube_sphere_centers(m);
  const auto a = recursive_coordinate_bisection(pts, {}, 7);
  const auto b = recursive_coordinate_bisection(pts, {}, 7);
  EXPECT_EQ(a.part_of, b.part_of);
  partition::validate(a, m.dual_graph());
}

TEST(Rcb, Preconditions) {
  std::vector<point3> pts{{0, 0, 0}, {1, 0, 0}};
  EXPECT_THROW(recursive_coordinate_bisection({}, {}, 1), contract_error);
  EXPECT_THROW(recursive_coordinate_bisection(pts, {}, 3), contract_error);
  EXPECT_THROW(recursive_coordinate_bisection(pts, {}, 0), contract_error);
  std::vector<graph::weight> bad_w{1};
  EXPECT_THROW(recursive_coordinate_bisection(pts, bad_w, 2), contract_error);
}

}  // namespace
