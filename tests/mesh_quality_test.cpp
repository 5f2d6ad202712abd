// Tests for the equiangular projection option, mesh quality diagnostics,
// and the VTK exporter.

#include <gtest/gtest.h>

#include <numbers>
#include <sstream>

#include "core/sfc_partition.hpp"
#include "io/vtk.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/quality.hpp"
#include "seam/shallow_water.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::mesh;

TEST(Projection, TopologyIdenticalAcrossProjections) {
  const cubed_sphere eq(4, projection::equidistant);
  const cubed_sphere ea(4, projection::equiangular);
  for (int id = 0; id < eq.num_elements(); ++id) {
    for (int e = 0; e < 4; ++e)
      EXPECT_EQ(eq.edge_neighbor(id, e), ea.edge_neighbor(id, e));
    EXPECT_EQ(eq.corner_neighbors(id), ea.corner_neighbors(id));
  }
}

TEST(Projection, MappingBasics) {
  const cubed_sphere eq(2, projection::equidistant);
  const cubed_sphere ea(2, projection::equiangular);
  EXPECT_DOUBLE_EQ(eq.map_face_coord(0.5), 0.5);
  EXPECT_DOUBLE_EQ(eq.map_face_coord_deriv(0.3), 1.0);
  // Equiangular: tan maps ±1 to ±1, 0 to 0, and stretches toward the edges.
  EXPECT_NEAR(ea.map_face_coord(1.0), 1.0, 1e-12);
  EXPECT_NEAR(ea.map_face_coord(-1.0), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(ea.map_face_coord(0.0), 0.0);
  EXPECT_LT(ea.map_face_coord(0.5), 0.5);  // tan(pi/8) ~ 0.414
  EXPECT_GT(ea.map_face_coord_deriv(1.0), ea.map_face_coord_deriv(0.0));
}

TEST(Projection, AreasStillSumToSphere) {
  for (const auto proj : {projection::equidistant, projection::equiangular}) {
    const cubed_sphere m(6, proj);
    double total = 0;
    for (int e = 0; e < m.num_elements(); ++e)
      total += m.element_area_sphere(e);
    EXPECT_NEAR(total, 4.0 * std::numbers::pi, 1e-9);
  }
}

TEST(Projection, EquiangularIsFarMoreUniform) {
  // The classic result: equidistant area ratio grows toward ~5.2, while
  // equiangular stays below ~1.45 at climate resolutions.
  const auto q_eq = analyze_quality(cubed_sphere(16, projection::equidistant));
  const auto q_ea = analyze_quality(cubed_sphere(16, projection::equiangular));
  EXPECT_GT(q_eq.area_ratio, 3.0);
  EXPECT_LT(q_ea.area_ratio, 1.6);
  EXPECT_LT(q_ea.area_ratio, 0.5 * q_eq.area_ratio);
  // Aspect ratios are essentially identical between mappings (the win is in
  // areas, not shapes): within 2% of each other.
  EXPECT_NEAR(q_ea.max_aspect, q_eq.max_aspect, 0.02 * q_eq.max_aspect);
}

TEST(Projection, Williamson2SteadyOnEquiangularMesh) {
  // The SEAM models consume the mesh's projection through map_face_coord;
  // the steady geostrophic state must hold on the equiangular mesh too.
  const cubed_sphere m(3, projection::equiangular);
  seam::shallow_water_model model(m, 6);
  const double u0 = 0.1, h0 = 10.0;
  model.set_williamson2(u0, h0);
  const auto reference = [&](vec3 p) {
    return h0 - (model.params().rotation * u0 + 0.5 * u0 * u0) * p.z * p.z /
                    model.params().gravity;
  };
  const double dt = model.cfl_dt(0.25);
  for (int s = 0; s < 40; ++s) model.step(dt);
  EXPECT_LE(model.depth_error(reference), 5e-4);
}

TEST(Quality, ReportShape) {
  const auto q = analyze_quality(cubed_sphere(4));
  EXPECT_GT(q.min_area, 0);
  EXPECT_GE(q.max_area, q.min_area);
  EXPECT_GE(q.area_ratio, 1.0);
  EXPECT_NEAR(q.total_area, 4.0 * std::numbers::pi, 1e-9);
  EXPECT_GE(q.max_aspect, 1.0);
  EXPECT_GE(q.max_aspect, q.mean_aspect);
}

TEST(Quality, EdgeLengthsReasonable) {
  const cubed_sphere m(4);
  for (int e = 0; e < m.num_elements(); ++e) {
    for (int edge = 0; edge < 4; ++edge) {
      const double len = element_edge_length(m, e, edge);
      EXPECT_GT(len, 0.05);
      EXPECT_LT(len, 1.0);  // well under a quadrant
    }
  }
  EXPECT_THROW(element_edge_length(m, 0, 4), contract_error);
}

// ---- vtk ----------------------------------------------------------------------

TEST(Vtk, WritesWellFormedFile) {
  const cubed_sphere m(2);
  const auto part = core::sfc_partition(m, 6);
  io::vtk_cell_field owner{"owner", {}};
  owner.values.assign(part.part_of.begin(), part.part_of.end());
  std::ostringstream os;
  io::write_vtk(os, m, {owner});
  const std::string s = os.str();
  EXPECT_NE(s.find("# vtk DataFile"), std::string::npos);
  EXPECT_NE(s.find("DATASET UNSTRUCTURED_GRID"), std::string::npos);
  // Shared corner points are deduplicated: a closed quad surface with
  // F = 24 faces has F + 2 = 26 vertices.
  EXPECT_NE(s.find("POINTS 26 double"), std::string::npos);
  EXPECT_NE(s.find("CELLS 24 120"), std::string::npos);
  EXPECT_NE(s.find("SCALARS owner double 1"), std::string::npos);
}

TEST(Vtk, RejectsBadFields) {
  const cubed_sphere m(2);
  std::ostringstream os;
  EXPECT_THROW(io::write_vtk(os, m, {{"short", {1.0, 2.0}}}), contract_error);
  std::vector<double> ok(static_cast<std::size_t>(m.num_elements()), 0.0);
  EXPECT_THROW(io::write_vtk(os, m, {{"bad name", ok}}), contract_error);
}

}  // namespace
