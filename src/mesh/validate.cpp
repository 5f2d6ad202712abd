#include "mesh/validate.hpp"

#include <algorithm>
#include <sstream>
#include <string>

namespace sfp::mesh {

namespace {

template <typename... Parts>
std::string format(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

}  // namespace

diagnostic validate_topology(const topology_view& m) {
  const int ne = m.ne;
  const int k = m.num_elements;
  if (k != 6 * ne * ne)
    return diagnostic::fail(
        "mesh.element-count",
        format("mesh reports ", k, " elements for Ne=", ne, ", want ",
               6 * ne * ne));

  int cube_vertex_incidences = 0;
  for (int id = 0; id < k; ++id) {
    const element_ref r = m.element_of(id);
    if (m.element_id(r) != id)
      return diagnostic::fail(
          "mesh.id-roundtrip",
          format("element ", id, " maps to (face=", r.face, ",i=", r.i,
                 ",j=", r.j, ") which maps back to ", m.element_id(r)),
          id);

    // Four edge neighbours, all mutual, with links that point back.
    for (int e = 0; e < 4; ++e) {
      const int n = m.edge_neighbor(id, e);
      if (n < 0 || n >= k || n == id)
        return diagnostic::fail(
            "mesh.edge-range",
            format("element ", id, " edge ", e, " neighbour is ", n), id);
      const edge_link link = m.edge_link_of(id, e);
      if (link.neighbor != n)
        return diagnostic::fail(
            "mesh.edge-link",
            format("element ", id, " edge ", e, " link names ", link.neighbor,
                   " but edge_neighbor says ", n),
            id);
      if (link.neighbor_edge < 0 || link.neighbor_edge >= 4)
        return diagnostic::fail(
            "mesh.edge-link",
            format("element ", id, " edge ", e, " link has neighbour edge ",
                   link.neighbor_edge),
            id);
      if (m.edge_neighbor(n, link.neighbor_edge) != id)
        return diagnostic::fail(
            "mesh.edge-symmetry",
            format("element ", id, " edge ", e, " goes to ", n, " edge ",
                   link.neighbor_edge, " which goes to ",
                   m.edge_neighbor(n, link.neighbor_edge)),
            id);
      const edge_link back = m.edge_link_of(n, link.neighbor_edge);
      if (back.neighbor != id || back.neighbor_edge != e ||
          back.reversed != link.reversed)
        return diagnostic::fail(
            "mesh.edge-link",
            format("element ", id, " edge ", e, " link is not mirrored by ",
                   n, " edge ", link.neighbor_edge),
            id);
    }

    // Corner-only neighbours: 4 in face interiors, 3 when the element
    // touches a cube vertex; mutual; disjoint from edge neighbours.
    const std::vector<int> corners = m.corner_neighbors(id);
    int vertex_corners = 0;
    for (int c = 0; c < 4; ++c)
      if (m.corner_is_cube_vertex(id, c)) ++vertex_corners;
    cube_vertex_incidences += vertex_corners;
    const auto expected = static_cast<std::size_t>(4 - vertex_corners);
    if (corners.size() != expected)
      return diagnostic::fail(
          "mesh.corner-count",
          format("element ", id, " has ", corners.size(),
                 " corner-only neighbours, want ", expected, " (touches ",
                 vertex_corners, " cube vertices)"),
          id);
    for (const int c : corners) {
      if (c < 0 || c >= k || c == id)
        return diagnostic::fail(
            "mesh.corner-count",
            format("element ", id, " corner neighbour id ", c,
                   " out of range"),
            id);
      for (int e = 0; e < 4; ++e)
        if (m.edge_neighbor(id, e) == c)
          return diagnostic::fail(
              "mesh.corner-disjoint",
              format("element ", id, " lists ", c,
                     " as corner-only but it is also an edge neighbour"),
              id);
      const std::vector<int> back = m.corner_neighbors(c);
      if (std::find(back.begin(), back.end(), id) == back.end())
        return diagnostic::fail(
            "mesh.corner-symmetry",
            format("element ", id, " lists corner neighbour ", c,
                   " which does not list it back"),
            id);
    }
  }

  // The cube has exactly 8 vertices and only 3 faces meet at each.
  if (cube_vertex_incidences != 24)
    return diagnostic::fail(
        "mesh.cube-vertex",
        format("counted ", cube_vertex_incidences,
               " (element, corner) incidences on cube vertices, want 24"));

  return diagnostic::pass();
}

topology_view view_of(const cubed_sphere& m) {
  topology_view v;
  v.ne = m.ne();
  v.num_elements = m.num_elements();
  v.element_of = [&m](int id) { return m.element_of(id); };
  v.element_id = [&m](element_ref r) { return m.element_id(r); };
  v.edge_neighbor = [&m](int id, int e) { return m.edge_neighbor(id, e); };
  v.edge_link_of = [&m](int id, int e) { return m.edge_link_of(id, e); };
  v.corner_neighbors = [&m](int id) {
    const corner_set c = m.corner_neighbors(id);
    return std::vector<int>(c.begin(), c.end());
  };
  v.corner_is_cube_vertex = [&m](int id, int c) {
    return m.corner_is_cube_vertex(id, c);
  };
  return v;
}

diagnostic validate_topology(const cubed_sphere& m) {
  return validate_topology(view_of(m));
}

}  // namespace sfp::mesh
