#pragma once
// The cubed-sphere computational domain (paper Section 1, Figure 1).
//
// Six cube faces, each subdivided into an Ne×Ne array of quadrilateral
// spectral elements, gnomonically projected onto the unit sphere. Total
// element count K = 6·Ne². Elements are the atomic units of partitioning;
// two elements communicate iff they share a boundary edge or a corner point
// (including across cube edges and at cube vertices, where only three faces
// meet).
//
// Topology is closed-form: the mesh stores only (Ne, projection) and answers
// every neighbour query with integer arithmetic on the face frames, in O(1)
// time and with no stored incidences. Each element corner is an integer
// point on the cube surface (the cube spans [-Ne, Ne]³), so points shared
// between faces coincide exactly. A step off a face goes to the crossed
// edge, then half an element inward along the old face normal; the face and
// (i, j) of the neighbour are read off that lattice point. There are no
// hand-written face-gluing tables to get wrong.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "graph/csr.hpp"
#include "mesh/geometry.hpp"
#include "util/contract.hpp"

namespace sfp::mesh {

/// Identifies an element by face and in-face grid position.
struct element_ref {
  int face = 0;  ///< 0..3 equatorial (+x,+y,-x,-y), 4 north (+z), 5 south (-z)
  int i = 0;     ///< local x index in [0, Ne)
  int j = 0;     ///< local y index in [0, Ne)
  friend bool operator==(const element_ref&, const element_ref&) = default;
};

/// Where an element edge connects: the neighbouring element, which of its
/// local edges is glued to ours, and whether the shared edge's parameter
/// runs in the opposite direction (needed for spectral-element DSS).
struct edge_link {
  int neighbor = -1;
  int neighbor_edge = -1;  ///< 0=S, 1=E, 2=N, 3=W on the neighbour
  bool reversed = false;
};

/// At most N values held inline: the answer to a topology query whose size
/// is small and bounded, returned by value with no heap allocation.
template <typename T, std::size_t N>
class inline_list {
 public:
  std::size_t size() const { return size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }
  const T& operator[](std::size_t k) const { return items_[k]; }
  void push_back(const T& v) {
    SFP_ASSERT(size_ < N, "inline_list capacity exceeded");
    items_[size_++] = v;
  }

  friend bool operator==(const inline_list& a, const inline_list& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

/// Corner-only neighbours of an element, ascending (3 or 4 when Ne >= 2).
using corner_set = inline_list<int, 4>;
/// (element, that element's local corner) pairs around one corner point,
/// ascending by element (3 around regular points, 2 around cube vertices).
using corner_incidences = inline_list<std::pair<int, int>, 3>;

/// How face coordinates map onto the cube before projecting to the sphere.
/// `equidistant` subdivides the cube face uniformly (the construction the
/// paper describes); `equiangular` subdivides uniformly in projected angle
/// (the mapping production dycores adopted for its far more uniform element
/// areas). Topology is identical either way — only geometry changes.
enum class projection : std::uint8_t { equidistant, equiangular };

class cubed_sphere {
 public:
  /// Largest Ne whose element ids fit an int: 6·Ne² < 2³¹.
  static constexpr int max_ne = 18918;

  /// The mesh for Ne elements per cube-face side (K = 6·Ne²),
  /// 1 <= Ne <= max_ne. O(1): nothing is built.
  explicit cubed_sphere(int ne, projection proj = projection::equidistant);

  int ne() const { return ne_; }
  int num_elements() const { return 6 * ne_ * ne_; }
  projection proj() const { return proj_; }

  /// Map an abstract face coordinate a ∈ [-1,1] to the cube coordinate
  /// (identity for equidistant, tan(aπ/4) for equiangular), and its
  /// derivative — the chain-rule factor the spectral element metric needs.
  double map_face_coord(double a) const;
  double map_face_coord_deriv(double a) const;

  // ---- id mapping -------------------------------------------------------
  int element_id(int face, int i, int j) const;
  int element_id(element_ref r) const { return element_id(r.face, r.i, r.j); }
  /// Inline: the distributed partitioner decodes one id per SFC key.
  element_ref element_of(int id) const {
    SFP_REQUIRE(id >= 0 && id < num_elements(), "element id out of range");
    const int row = id / ne_;  // face·Ne + j
    return {row / ne_, id - row * ne_, row % ne_};
  }

  // ---- topology ---------------------------------------------------------
  /// Neighbour across local edge 0=S (j-1), 1=E (i+1), 2=N (j+1), 3=W (i-1);
  /// steps off the face land on the adjoining face. Every element has
  /// exactly four edge neighbours (the surface is closed).
  int edge_neighbor(int id, int edge) const;

  /// Full link for local edge `edge` (neighbour + its edge + orientation).
  edge_link edge_link_of(int id, int edge) const;

  /// Elements sharing *only* a corner point with `id` (diagonal neighbours),
  /// ascending. Size 4 in face interiors; 3 for elements touching a cube
  /// vertex (none at Ne = 1).
  corner_set corner_neighbors(int id) const;

  /// All elements sharing local corner `c` (0=SW,1=SE,2=NE,3=NW) with `id`,
  /// as (element, that element's corner index) pairs ascending by element,
  /// self excluded. Size 3 around regular points, 2 around cube vertices.
  corner_incidences corner_links(int id, int corner) const;

  /// True if local corner `c` of `id` lies on a cube vertex (3 faces meet).
  bool corner_is_cube_vertex(int id, int corner) const;

  /// Integer lattice corner points of an element, locally ordered
  /// SW, SE, NE, NW.
  std::array<ivec3, 4> corner_points(int id) const;

  // ---- geometry ---------------------------------------------------------
  /// Gnomonic projection of the element center onto the unit sphere.
  vec3 element_center_sphere(int id) const;

  /// Gnomonic projection of reference coordinates (xi, eta) ∈ [-1,1]² within
  /// the element onto the unit sphere.
  vec3 reference_to_sphere(int id, double xi, double eta) const;

  /// Spherical area (solid angle) of the element.
  double element_area_sphere(int id) const;

  // ---- dual graph (partitioning input, paper Section 2) ------------------
  /// Communication graph: vertices are elements; edge-sharing pairs get
  /// weight `edge_weight`, corner-only pairs `corner_weight` (proportional
  /// to the data exchanged: a whole edge of GLL points vs a single point).
  /// With include_corners=false only edge-sharing pairs appear (ablation).
  /// Each CSR row is written directly as the sorted union of the element's
  /// edge and corner neighbours.
  graph::csr dual_graph(graph::weight edge_weight = 8,
                        graph::weight corner_weight = 1,
                        bool include_corners = true) const;

  /// Face frame: center + in-face tangent axes (unit integer vectors).
  struct face_frame {
    vec3 center, u, v;
  };
  static face_frame frame_of_face(int face);

 private:
  ivec3 corner_point(int face, int ci, int cj) const;  // lattice corner (ci,cj)
  vec3 corner_point_geometric(int face, int ci, int cj) const;  // projected

  ivec3 corner_point(element_ref r, int corner) const;
  element_ref step(element_ref r, int edge) const;  // across local edge
  element_ref element_at(ivec3 center) const;  // element centred on a point
  corner_set corner_neighbors_of(element_ref r) const;

  int ne_;
  projection proj_ = projection::equidistant;
};

}  // namespace sfp::mesh
