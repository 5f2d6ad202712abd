// Tests for the cubed-sphere mesh: id mapping, cross-face topology derived
// from the integer lattice, geometry of the gnomonic projection, and the
// dual (communication) graph.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>

#include "graph/ops.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/layout.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::mesh;

TEST(Mesh, ElementCountMatchesPaperResolutions) {
  // Paper Table 1: K = 6 Ne².
  EXPECT_EQ(cubed_sphere(8).num_elements(), 384);
  EXPECT_EQ(cubed_sphere(9).num_elements(), 486);
  EXPECT_EQ(cubed_sphere(16).num_elements(), 1536);
  EXPECT_EQ(cubed_sphere(18).num_elements(), 1944);
}

TEST(Mesh, IdMappingRoundTrips) {
  const cubed_sphere m(5);
  for (int id = 0; id < m.num_elements(); ++id) {
    const element_ref r = m.element_of(id);
    EXPECT_EQ(m.element_id(r), id);
    EXPECT_GE(r.face, 0);
    EXPECT_LT(r.face, 6);
    EXPECT_GE(r.i, 0);
    EXPECT_LT(r.i, 5);
  }
  EXPECT_THROW(m.element_of(-1), contract_error);
  EXPECT_THROW(m.element_of(m.num_elements()), contract_error);
  EXPECT_THROW(m.element_id(6, 0, 0), contract_error);
  EXPECT_THROW(m.element_id(0, 5, 0), contract_error);
}

class MeshTopology : public ::testing::TestWithParam<int> {};

TEST_P(MeshTopology, EveryElementHasFourEdgeNeighbors) {
  const cubed_sphere m(GetParam());
  for (int id = 0; id < m.num_elements(); ++id) {
    std::set<int> nbrs;
    for (int e = 0; e < 4; ++e) {
      const int n = m.edge_neighbor(id, e);
      ASSERT_GE(n, 0);
      ASSERT_LT(n, m.num_elements());
      EXPECT_NE(n, id);
      nbrs.insert(n);
    }
    EXPECT_EQ(nbrs.size(), 4u) << "element " << id
                               << " has duplicate edge neighbours";
  }
}

TEST_P(MeshTopology, EdgeNeighborhoodIsSymmetric) {
  const cubed_sphere m(GetParam());
  for (int id = 0; id < m.num_elements(); ++id) {
    for (int e = 0; e < 4; ++e) {
      const edge_link link = m.edge_link_of(id, e);
      const edge_link back = m.edge_link_of(link.neighbor, link.neighbor_edge);
      EXPECT_EQ(back.neighbor, id);
      EXPECT_EQ(back.neighbor_edge, e);
      EXPECT_EQ(back.reversed, link.reversed);
    }
  }
}

TEST_P(MeshTopology, CornerNeighborCounts) {
  // Interior-ish elements have 4 diagonal neighbours; elements touching a
  // cube vertex have only 3 (three faces meet there). Exactly 24 elements
  // touch cube vertices (8 vertices × 3 faces) when Ne >= 2.
  const int ne = GetParam();
  if (ne < 2) return;
  const cubed_sphere m(ne);
  int with3 = 0, with4 = 0;
  for (int id = 0; id < m.num_elements(); ++id) {
    const auto& cn = m.corner_neighbors(id);
    ASSERT_TRUE(cn.size() == 3 || cn.size() == 4)
        << "element " << id << " has " << cn.size() << " corner neighbours";
    (cn.size() == 3 ? with3 : with4)++;
  }
  EXPECT_EQ(with3, 24);
  EXPECT_EQ(with4, m.num_elements() - 24);
}

TEST_P(MeshTopology, CubeVertexDetection) {
  const int ne = GetParam();
  const cubed_sphere m(ne);
  int vertex_corners = 0;
  for (int id = 0; id < m.num_elements(); ++id)
    for (int c = 0; c < 4; ++c)
      vertex_corners += m.corner_is_cube_vertex(id, c);
  // Each of the 8 cube vertices is a corner of exactly 3 elements.
  EXPECT_EQ(vertex_corners, 24);
}

TEST_P(MeshTopology, CornerLinksAreConsistent) {
  const cubed_sphere m(GetParam());
  for (int id = 0; id < m.num_elements(); ++id) {
    for (int c = 0; c < 4; ++c) {
      const auto links = m.corner_links(id, c);
      const std::size_t expected = m.corner_is_cube_vertex(id, c) ? 2 : 3;
      EXPECT_EQ(links.size(), expected);
      // Reciprocity: if (other, oc) shares our corner, we appear in theirs.
      for (const auto& [other, oc] : links) {
        const auto back = m.corner_links(other, oc);
        bool found = false;
        for (const auto& [b, bc] : back) found |= (b == id && bc == c);
        EXPECT_TRUE(found);
      }
    }
  }
}

TEST_P(MeshTopology, SameFaceInteriorNeighborsMatchGridStencil) {
  const int ne = GetParam();
  if (ne < 3) return;
  const cubed_sphere m(ne);
  // A strictly interior element's neighbours are the familiar 4 + 4 stencil
  // on the same face.
  const int id = m.element_id(2, 1, 1);
  std::set<int> expect_edge, expect_corner;
  for (int dj = -1; dj <= 1; ++dj)
    for (int di = -1; di <= 1; ++di) {
      if (di == 0 && dj == 0) continue;
      const int nbr = m.element_id(2, 1 + di, 1 + dj);
      (std::abs(di) + std::abs(dj) == 1 ? expect_edge : expect_corner)
          .insert(nbr);
    }
  std::set<int> got_edge;
  for (int e = 0; e < 4; ++e) got_edge.insert(m.edge_neighbor(id, e));
  EXPECT_EQ(got_edge, expect_edge);
  const auto& cn = m.corner_neighbors(id);
  EXPECT_EQ(std::set<int>(cn.begin(), cn.end()), expect_corner);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshTopology,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8),
                         ::testing::PrintToStringParamName());

TEST(MeshGeometry, CentersLieOnUnitSphere) {
  const cubed_sphere m(4);
  for (int id = 0; id < m.num_elements(); ++id) {
    EXPECT_NEAR(norm(m.element_center_sphere(id)), 1.0, 1e-12);
    EXPECT_NEAR(norm(m.reference_to_sphere(id, -1, 1)), 1.0, 1e-12);
  }
}

TEST(MeshGeometry, AreasSumToFullSphere) {
  for (const int ne : {1, 2, 4, 8}) {
    const cubed_sphere m(ne);
    double total = 0;
    for (int id = 0; id < m.num_elements(); ++id)
      total += m.element_area_sphere(id);
    EXPECT_NEAR(total, 4.0 * std::numbers::pi, 1e-9) << "Ne=" << ne;
  }
}

TEST(MeshGeometry, GnomonicCellsShrinkTowardFaceCorners) {
  // Equiangular distortion: the gnomonic projection of equal cube cells
  // gives smaller spherical areas near face corners than at face centers.
  const cubed_sphere m(8);
  const double center = m.element_area_sphere(m.element_id(0, 3, 3));
  const double corner = m.element_area_sphere(m.element_id(0, 0, 0));
  EXPECT_GT(center, corner);
}

TEST(MeshGeometry, FaceCentersPointAlongAxes) {
  const cubed_sphere m(2);
  const auto f0 = cubed_sphere::frame_of_face(0);
  EXPECT_DOUBLE_EQ(f0.center.x, 1.0);
  const auto f4 = cubed_sphere::frame_of_face(4);
  EXPECT_DOUBLE_EQ(f4.center.z, 1.0);
  EXPECT_THROW(cubed_sphere::frame_of_face(6), contract_error);
}

TEST(MeshDualGraph, StructureAndWeights) {
  const cubed_sphere m(4);
  const auto g = m.dual_graph(8, 1);
  g.validate();
  EXPECT_EQ(g.num_vertices(), m.num_elements());
  EXPECT_TRUE(graph::is_connected(g));
  // Total degree: every element 4 edge-neighbours; corner neighbours 3 or 4.
  for (graph::vid v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(g.degree(v), 7);
    EXPECT_LE(g.degree(v), 8);
  }
  // Edge count: 4*K/2 edge pairs + (sum corner)/2.
  const int k = m.num_elements();
  const graph::eid corner_pairs = (4 * (k - 24) + 3 * 24) / 2;
  EXPECT_EQ(g.num_edges(), 2 * k + corner_pairs);
}

TEST(MeshDualGraph, WithoutCornersIsFourRegular) {
  const cubed_sphere m(3);
  const auto g = m.dual_graph(1, 1, /*include_corners=*/false);
  g.validate();
  for (graph::vid v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(g.degree(v), 4);
  EXPECT_EQ(g.num_edges(), 2 * m.num_elements());
}

TEST(MeshDualGraph, CornerWeightShowsUp) {
  const cubed_sphere m(4);
  const auto g = m.dual_graph(8, 2);
  // Pick an interior element; its weights must be four 8s and four 2s.
  const int id = m.element_id(1, 1, 1);
  int w8 = 0, w2 = 0;
  for (const graph::weight w : g.neighbor_weights(id))
    (w == 8 ? w8 : w2) += 1;
  EXPECT_EQ(w8, 4);
  EXPECT_EQ(w2, 4);
}

TEST(MeshLayout, FlattenIsInjective) {
  const cubed_sphere m(3);
  std::set<std::pair<int, int>> seen;
  for (int id = 0; id < m.num_elements(); ++id) {
    const flat_pos p = flatten(m, id);
    EXPECT_TRUE(seen.insert({p.x, p.y}).second);
    const flat_pos ext = flat_extent(m);
    EXPECT_GE(p.x, 0);
    EXPECT_LT(p.x, ext.x);
    EXPECT_GE(p.y, 0);
    EXPECT_LT(p.y, ext.y);
  }
}

TEST(MeshLayout, RenderLabels) {
  const cubed_sphere m(2);
  std::vector<int> labels(static_cast<std::size_t>(m.num_elements()));
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<int>(i % 10);
  const std::string art = render_flat_labels(m, labels);
  EXPECT_FALSE(art.empty());
  EXPECT_THROW(render_flat_labels(m, std::vector<int>(3)), contract_error);
}

TEST(Mesh, RejectsBadConstruction) {
  EXPECT_THROW(cubed_sphere(0), contract_error);
  EXPECT_THROW(cubed_sphere(-2), contract_error);
}

}  // namespace
