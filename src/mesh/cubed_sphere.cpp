#include "mesh/cubed_sphere.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "graph/validate.hpp"
#include "mesh/validate.hpp"
#include "util/contract.hpp"

namespace sfp::mesh {

namespace {

// Integer face frames: center, u (local x), v (local y). Faces 0-3 wrap the
// equator eastward; 4 is the north (+z) cap, 5 the south (-z) cap.
struct iframe {
  ivec3 c, u, v;
};
constexpr iframe kFrames[6] = {
    {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},    // +x
    {{0, 1, 0}, {-1, 0, 0}, {0, 0, 1}},   // +y
    {{-1, 0, 0}, {0, -1, 0}, {0, 0, 1}},  // -x
    {{0, -1, 0}, {1, 0, 0}, {0, 0, 1}},   // -y
    {{0, 0, 1}, {0, 1, 0}, {-1, 0, 0}},   // +z (north)
    {{0, 0, -1}, {0, 1, 0}, {1, 0, 0}},   // -z (south)
};

constexpr int dot(ivec3 a, ivec3 b) { return a.x * b.x + a.y * b.y + a.z * b.z; }

/// sc·c + su·u + sv·v in frame `f`. Every frame vector is a unit axis, so
/// each coordinate is a single signed term bounded by the largest |s|.
constexpr ivec3 lattice(const iframe& f, int sc, int su, int sv) {
  return {sc * f.c.x + su * f.u.x + sv * f.v.x,
          sc * f.c.y + su * f.u.y + sv * f.v.y,
          sc * f.c.z + su * f.u.z + sv * f.v.z};
}

/// The face whose outward normal points along coordinate axis `axis`
/// (0=x, 1=y, 2=z), on the side of `coord`'s sign.
constexpr int face_toward(int axis, int coord) {
  constexpr int kFace[3][2] = {{2, 0}, {3, 1}, {5, 4}};
  return kFace[axis][coord > 0 ? 1 : 0];
}

/// Insertion sort of the first `n` entries, for the few (<= 12) entries of
/// a topology query; std::sort on a short std::array trips GCC's
/// -Warray-bounds.
template <typename T, std::size_t N>
void sort_prefix(std::array<T, N>& a, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = i; j > 0 && a[j] < a[j - 1]; --j)
      std::swap(a[j], a[j - 1]);
}

/// (di, dj) of a step across local edge 0=S, 1=E, 2=N, 3=W.
constexpr int kStep[4][2] = {{0, -1}, {1, 0}, {0, 1}, {-1, 0}};
/// (ci - i, cj - j) of local corner 0=SW, 1=SE, 2=NE, 3=NW.
constexpr int kCorner[4][2] = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};

/// Calls f(element, local corner) for every element with lattice corner
/// `p`. Each face the point lies on (1 inside a face, 2 on a cube edge, 3 at
/// a cube vertex) contributes the elements around it on that face, in
/// ascending id order.
template <typename F>
void for_each_incidence(int ne, ivec3 p, F&& f) {
  const int coord[3] = {p.x, p.y, p.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(coord[axis]) != ne) continue;
    const int face = face_toward(axis, coord[axis]);
    const iframe& fr = kFrames[face];
    const int ci = (dot(p, fr.u) + ne) / 2;
    const int cj = (dot(p, fr.v) + ne) / 2;
    for (const int c : {2, 3, 1, 0}) {
      const int i = ci - kCorner[c][0];
      const int j = cj - kCorner[c][1];
      if (i >= 0 && i < ne && j >= 0 && j < ne) f((face * ne + j) * ne + i, c);
    }
  }
}

}  // namespace

cubed_sphere::cubed_sphere(int ne, projection proj) : ne_(ne), proj_(proj) {
  SFP_REQUIRE(ne >= 1, "Ne must be at least 1");
  SFP_REQUIRE(ne <= max_ne,
              "Ne too large: element ids are int, so 6*Ne^2 must stay "
              "below 2^31 (Ne <= 18918)");
  // Audit tier: full topology audit (4-neighbour symmetry across faces,
  // corner consistency, 8 cube vertices × 3 faces).
  SFP_AUDIT_DIAG(validate_topology(*this));
}

ivec3 cubed_sphere::corner_point(int face, int ci, int cj) const {
  return lattice(kFrames[face], ne_, 2 * ci - ne_, 2 * cj - ne_);
}

ivec3 cubed_sphere::corner_point(element_ref r, int corner) const {
  return corner_point(r.face, r.i + kCorner[corner][0],
                      r.j + kCorner[corner][1]);
}

std::array<ivec3, 4> cubed_sphere::corner_points(int id) const {
  const element_ref r = element_of(id);
  return {corner_point(r, 0), corner_point(r, 1), corner_point(r, 2),
          corner_point(r, 3)};
}

element_ref cubed_sphere::element_at(ivec3 center) const {
  // Exactly one coordinate of an element centre sits on the cube surface
  // (|x| = Ne); its axis and sign name the face.
  const int coord[3] = {center.x, center.y, center.z};
  int axis = 0;
  while (std::abs(coord[axis]) != ne_) ++axis;
  const int face = face_toward(axis, coord[axis]);
  const iframe& f = kFrames[face];
  return {face, (dot(center, f.u) + ne_ - 1) / 2,
          (dot(center, f.v) + ne_ - 1) / 2};
}

element_ref cubed_sphere::step(element_ref r, int edge) const {
  const int di = kStep[edge][0];
  const int dj = kStep[edge][1];
  const int i = r.i + di;
  const int j = r.j + dj;
  if (i >= 0 && i < ne_ && j >= 0 && j < ne_) return {r.face, i, j};
  // Off the face: to the midpoint of the crossed edge, then half an element
  // inward along the old normal, which lands on the neighbour's centre.
  return element_at(lattice(kFrames[r.face], ne_ - 1, 2 * r.i + 1 - ne_ + di,
                            2 * r.j + 1 - ne_ + dj));
}

int cubed_sphere::edge_neighbor(int id, int edge) const {
  SFP_REQUIRE(edge >= 0 && edge < 4, "edge index out of range");
  return element_id(step(element_of(id), edge));
}

edge_link cubed_sphere::edge_link_of(int id, int edge) const {
  SFP_REQUIRE(edge >= 0 && edge < 4, "edge index out of range");
  const element_ref a = element_of(id);
  const element_ref b = step(a, edge);
  int neighbor_edge = (edge + 2) % 4;
  if (b.face != a.face) {
    // The shared edge lies from b's centre along a's normal.
    const iframe& fa = kFrames[a.face];
    const iframe& fb = kFrames[b.face];
    const int du = dot(fa.c, fb.u);
    const int dv = dot(fa.c, fb.v);
    neighbor_edge = du > 0 ? 1 : du < 0 ? 3 : dv > 0 ? 2 : 0;
  }
  // Local edge e runs from corner e to corner e+1 on both sides.
  const bool reversed =
      !(corner_point(a, edge) == corner_point(b, neighbor_edge));
  return {element_id(b), neighbor_edge, reversed};
}

corner_incidences cubed_sphere::corner_links(int id, int corner) const {
  SFP_REQUIRE(corner >= 0 && corner < 4, "corner index out of range");
  std::array<std::pair<int, int>, 4> found{};  // 3 at most, self excluded
  std::size_t n = 0;
  for_each_incidence(ne_, corner_point(element_of(id), corner),
                     [&](int other, int c) {
                       if (other != id) found[n++] = {other, c};
                     });
  // Sorting only reorders when the point lies on more than one face.
  sort_prefix(found, n);
  corner_incidences out;
  for (std::size_t k = 0; k < n; ++k) out.push_back(found[k]);
  return out;
}

bool cubed_sphere::corner_is_cube_vertex(int id, int corner) const {
  SFP_REQUIRE(corner >= 0 && corner < 4, "corner index out of range");
  const ivec3 p = corner_point(element_of(id), corner);
  return std::abs(p.x) == ne_ && std::abs(p.y) == ne_ && std::abs(p.z) == ne_;
}

corner_set cubed_sphere::corner_neighbors_of(element_ref r) const {
  const int id = element_id(r);
  std::array<int, 4> edge_nbrs{};
  for (int e = 0; e < 4; ++e)
    edge_nbrs[static_cast<std::size_t>(e)] = element_id(step(r, e));
  // Everything around the four corners, less self and the edge neighbours.
  std::array<int, 12> around{};
  std::size_t n = 0;
  for (int c = 0; c < 4; ++c)
    for_each_incidence(ne_, corner_point(r, c), [&](int other, int) {
      if (other != id &&
          std::find(edge_nbrs.begin(), edge_nbrs.end(), other) == edge_nbrs.end())
        around[n++] = other;
    });
  sort_prefix(around, n);
  const auto last = around.begin() + static_cast<std::ptrdiff_t>(n);
  corner_set out;
  for (auto it = around.begin(), uend = std::unique(around.begin(), last);
       it != uend; ++it)
    out.push_back(*it);
  return out;
}

corner_set cubed_sphere::corner_neighbors(int id) const {
  return corner_neighbors_of(element_of(id));
}

double cubed_sphere::map_face_coord(double a) const {
  if (proj_ == projection::equidistant) return a;
  return std::tan(a * 0.25 * 3.14159265358979323846);
}

double cubed_sphere::map_face_coord_deriv(double a) const {
  if (proj_ == projection::equidistant) return 1.0;
  constexpr double quarter_pi = 0.25 * 3.14159265358979323846;
  const double c = std::cos(a * quarter_pi);
  return quarter_pi / (c * c);
}

vec3 cubed_sphere::element_center_sphere(int id) const {
  return reference_to_sphere(id, 0.0, 0.0);
}

vec3 cubed_sphere::reference_to_sphere(int id, double xi, double eta) const {
  SFP_REQUIRE(xi >= -1.0 && xi <= 1.0 && eta >= -1.0 && eta <= 1.0,
              "reference coordinates must lie in [-1,1]");
  const element_ref r = element_of(id);
  const iframe& f = kFrames[r.face];
  // Abstract face coordinates in [-1,1]: element (i,j) covers
  // [2i/Ne - 1, 2(i+1)/Ne - 1] × (same in j); the projection mapping takes
  // them onto the cube.
  const double a =
      map_face_coord((2.0 * (r.i + 0.5 * (xi + 1.0)) - ne_) / ne_);
  const double b =
      map_face_coord((2.0 * (r.j + 0.5 * (eta + 1.0)) - ne_) / ne_);
  const vec3 p{f.c.x + a * f.u.x + b * f.v.x, f.c.y + a * f.u.y + b * f.v.y,
               f.c.z + a * f.u.z + b * f.v.z};
  return normalized(p);
}

vec3 cubed_sphere::corner_point_geometric(int face, int ci, int cj) const {
  const iframe& f = kFrames[face];
  const double a = map_face_coord((2.0 * ci - ne_) / ne_);
  const double b = map_face_coord((2.0 * cj - ne_) / ne_);
  return {f.c.x + a * f.u.x + b * f.v.x, f.c.y + a * f.u.y + b * f.v.y,
          f.c.z + a * f.u.z + b * f.v.z};
}

double cubed_sphere::element_area_sphere(int id) const {
  // Gnomonic projection maps the element's straight cube edges to great
  // circle arcs, so the spherical element is a geodesic quad; its solid
  // angle is the sum of its two geodesic triangles, computed exactly from
  // the (un-normalized) cube-surface corners.
  const element_ref r = element_of(id);
  const vec3 c0 = corner_point_geometric(r.face, r.i, r.j);
  const vec3 c1 = corner_point_geometric(r.face, r.i + 1, r.j);
  const vec3 c2 = corner_point_geometric(r.face, r.i + 1, r.j + 1);
  const vec3 c3 = corner_point_geometric(r.face, r.i, r.j + 1);
  return std::abs(triangle_solid_angle(c0, c1, c2)) +
         std::abs(triangle_solid_angle(c0, c2, c3));
}

graph::csr cubed_sphere::dual_graph(graph::weight edge_weight,
                                    graph::weight corner_weight,
                                    bool include_corners) const {
  SFP_REQUIRE(edge_weight > 0, "edge weight must be positive");
  SFP_REQUIRE(corner_weight > 0, "corner weight must be positive");
  const auto k = static_cast<std::size_t>(num_elements());
  // At most 8 neighbours per element; trimmed to the rows' total at the end.
  std::vector<graph::eid> xadj(k + 1, 0);
  std::vector<graph::vid> adjncy(8 * k);
  std::vector<graph::weight> adjwgt(8 * k);
  std::size_t used = 0;
  // Face interior: the 3×3 stencil on this face, already ascending. The
  // cursors and weights are locals so the stores cannot alias them.
  const auto interior_rows = [&](int first, int last) {
    const int n = ne_;
    const graph::weight ew = edge_weight;
    const graph::weight cw = corner_weight;
    graph::vid* a = adjncy.data() + used;
    graph::weight* w = adjwgt.data() + used;
    graph::eid at = static_cast<graph::eid>(used);
    graph::eid* x = xadj.data() + first + 1;
    if (include_corners) {
      for (int id = first; id < last; ++id, a += 8, w += 8) {
        a[0] = id - n - 1;
        a[1] = id - n;
        a[2] = id - n + 1;
        a[3] = id - 1;
        a[4] = id + 1;
        a[5] = id + n - 1;
        a[6] = id + n;
        a[7] = id + n + 1;
        w[0] = w[2] = w[5] = w[7] = cw;
        w[1] = w[3] = w[4] = w[6] = ew;
        at += 8;
        *x++ = at;
      }
    } else {
      for (int id = first; id < last; ++id, a += 4, w += 4) {
        a[0] = id - n;
        a[1] = id - 1;
        a[2] = id + 1;
        a[3] = id + n;
        w[0] = w[1] = w[2] = w[3] = ew;
        at += 4;
        *x++ = at;
      }
    }
    used = static_cast<std::size_t>(at);
  };
  // Along local edge e of the current face, the element across from the
  // t-th edge element is affine in t: across[e][0] + across[e][1]·t.
  std::array<std::array<int, 2>, 4> across{};
  std::array<std::pair<int, graph::weight>, 8> row{};
  const auto boundary_row = [&](int face, int i, int j, int id) {
    const bool i_inside = i > 0 && i + 1 < ne_;
    const bool j_inside = j > 0 && j + 1 < ne_;
    std::size_t n = 0;
    if (i_inside || j_inside) {
      // Face edge strip: the stencil cells off the face lie along the
      // crossed edge, at strip positions t - 1, t, t + 1.
      const int e = j == 0 ? 0 : i + 1 == ne_ ? 1 : j + 1 == ne_ ? 2 : 3;
      const auto [base, stride] = across[static_cast<std::size_t>(e)];
      const int t = j_inside ? j : i;
      for (int dj = -1; dj <= 1; ++dj)
        for (int di = -1; di <= 1; ++di) {
          const bool shares_edge = di == 0 || dj == 0;
          if ((di == 0 && dj == 0) || (!shares_edge && !include_corners))
            continue;
          const int ni = i + di;
          const int nj = j + dj;
          const int nbr = ni >= 0 && ni < ne_ && nj >= 0 && nj < ne_
                              ? id + dj * ne_ + di
                              : base + stride * (t + (j_inside ? dj : di));
          row[n++] = {nbr, shares_edge ? edge_weight : corner_weight};
        }
    } else {
      // Face corner (every element when Ne <= 2): the general path.
      const element_ref r{face, i, j};
      for (int e = 0; e < 4; ++e)
        row[n++] = {element_id(step(r, e)), edge_weight};
      if (include_corners)
        for (const int nbr : corner_neighbors_of(r))
          row[n++] = {nbr, corner_weight};
    }
    sort_prefix(row, n);
    for (std::size_t m = 0; m < n; ++m, ++used) {
      adjncy[used] = row[m].first;
      adjwgt[used] = row[m].second;
    }
    xadj[static_cast<std::size_t>(id) + 1] = static_cast<graph::eid>(used);
  };
  for (int face = 0; face < 6; ++face) {
    if (ne_ >= 3)
      for (int e = 0; e < 4; ++e) {
        const auto across_from = [&](int t) {
          const element_ref r = e % 2 == 0
                                    ? element_ref{face, t, e == 0 ? 0 : ne_ - 1}
                                    : element_ref{face, e == 1 ? ne_ - 1 : 0, t};
          return element_id(step(r, e));
        };
        const int a0 = across_from(0);
        across[static_cast<std::size_t>(e)] = {a0, across_from(1) - a0};
      }
    for (int j = 0; j < ne_; ++j) {
      const int row_start = (face * ne_ + j) * ne_;
      if (j == 0 || j + 1 == ne_) {
        for (int i = 0; i < ne_; ++i) boundary_row(face, i, j, row_start + i);
        continue;
      }
      boundary_row(face, 0, j, row_start);
      interior_rows(row_start + 1, row_start + ne_ - 1);
      boundary_row(face, ne_ - 1, j, row_start + ne_ - 1);
    }
  }
  adjncy.resize(used);
  adjwgt.resize(used);
  graph::csr g(std::move(xadj), std::move(adjncy),
               std::vector<graph::weight>(k, 1), std::move(adjwgt));
  // Audit tier: rows sorted, weights positive, every edge mirrored.
  SFP_AUDIT_DIAG(graph::validate_csr(g));
  return g;
}

cubed_sphere::face_frame cubed_sphere::frame_of_face(int face) {
  SFP_REQUIRE(face >= 0 && face < 6, "face out of range");
  const iframe& f = kFrames[face];
  const auto v = [](ivec3 p) {
    return vec3{static_cast<double>(p.x), static_cast<double>(p.y),
                static_cast<double>(p.z)};
  };
  return {v(f.c), v(f.u), v(f.v)};
}

}  // namespace sfp::mesh
