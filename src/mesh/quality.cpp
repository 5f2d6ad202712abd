#include "mesh/quality.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace sfp::mesh {

double element_edge_length(const cubed_sphere& mesh, int element, int edge) {
  SFP_REQUIRE(edge >= 0 && edge < 4, "edge index out of range");
  // Corner GLL conventions: edge e runs from local corner e to (e+1)%4.
  // Use the geometric (projection-aware) corners via reference coordinates.
  constexpr double refs[4][2][2] = {
      {{-1, -1}, {1, -1}},   // S
      {{1, -1}, {1, 1}},     // E
      {{1, 1}, {-1, 1}},     // N
      {{-1, 1}, {-1, -1}},   // W
  };
  const vec3 a = mesh.reference_to_sphere(element, refs[edge][0][0],
                                          refs[edge][0][1]);
  const vec3 b = mesh.reference_to_sphere(element, refs[edge][1][0],
                                          refs[edge][1][1]);
  // Great-circle distance between unit vectors.
  const double c = std::clamp(dot(a, b), -1.0, 1.0);
  return std::acos(c);
}

quality_report analyze_quality(const cubed_sphere& mesh) {
  quality_report r;
  r.min_area = 1e300;
  double aspect_sum = 0;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const double area = mesh.element_area_sphere(e);
    r.min_area = std::min(r.min_area, area);
    r.max_area = std::max(r.max_area, area);
    r.total_area += area;
    double emin = 1e300, emax = 0;
    for (int edge = 0; edge < 4; ++edge) {
      const double len = element_edge_length(mesh, e, edge);
      emin = std::min(emin, len);
      emax = std::max(emax, len);
    }
    const double aspect = emax / emin;
    r.max_aspect = std::max(r.max_aspect, aspect);
    aspect_sum += aspect;
  }
  r.area_ratio = r.max_area / r.min_area;
  r.mean_aspect = aspect_sum / mesh.num_elements();
  return r;
}

}  // namespace sfp::mesh
