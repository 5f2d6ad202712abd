#pragma once
// Stitching the six per-face curves into a single continuous space-filling
// curve over the whole cubed-sphere (paper Section 3, Figure 6).
//
// A face curve (our convention) enters at one corner cell and exits at an
// adjacent corner cell, so each face can act as a "corner turn" or a
// "pass-through" between its neighbours. The stitcher walks a Hamiltonian
// cycle over the cube's face-adjacency graph and picks one of the eight
// dihedral orientations per face so that every face's exit element is
// surface-adjacent — across the shared cube edge — to the next face's entry
// element. The search is validated against the mesh's own neighbour
// relation, so a returned stitching is correct by construction; closed
// stitchings (the curve re-enters the first face at its entry cell) are
// preferred when they exist.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "mesh/cubed_sphere.hpp"
#include "sfc/curve.hpp"
#include "sfc/point_query.hpp"
#include "sfc/transform.hpp"
#include "util/contract.hpp"

namespace sfp::core {

/// The stitched curve's metadata without the materialized traversal: the
/// per-face schedule, compiled once for point queries, plus the face cycle
/// and orientations the stitch search chose. This maps any element to its
/// position along the global curve and back in O(1) memory — the shared
/// "schedule" every rank of the distributed partitioner enumerates its
/// curve range from.
struct cube_curve_spec {
  sfc::curve_locator face_curve;            ///< per-face schedule, compiled
  std::array<int, 6> face_order{};          ///< faces in visit order
  std::array<sfc::dihedral, 6> orientation{};  ///< per face (indexed by face id)
  bool closed = false;  ///< last element is surface-adjacent to the first
};

/// A continuous traversal of all K = 6·Ne² elements of the cubed-sphere.
struct cube_curve {
  sfc::schedule face_schedule;              ///< per-face refinement schedule
  std::array<int, 6> face_order{};          ///< faces in visit order
  std::array<sfc::dihedral, 6> orientation{};  ///< per face (indexed by face id)
  bool closed = false;  ///< last element is surface-adjacent to the first
  std::vector<int> order;  ///< element ids in traversal order, size K
};

/// The metadata view of an already-built curve.
cube_curve_spec spec_of(const cube_curve& curve);

/// Run the stitch search only — same face cycle, orientations and closure
/// as build_cube_curve, but without materializing the O(K) order. The
/// search touches only corner elements, so this is cheap enough for every
/// rank of a distributed run to call independently and deterministically.
cube_curve_spec build_cube_curve_spec(const mesh::cubed_sphere& mesh,
                                      const sfc::schedule& face_schedule);
cube_curve_spec build_cube_curve_spec(
    const mesh::cubed_sphere& mesh,
    sfc::nesting_order order = sfc::nesting_order::peano_first);

/// Position of one element along the curve `spec` describes (its SFC key):
/// the face's block offset in the visit order plus the in-face point query,
/// started in the face's orientation (sfc/point_query.hpp). One table
/// lookup per compiled level, no allocation; agrees with the materialized
/// curve:
///   curve_position_of(spec_of(c), mesh, c.order[i]) == i.
std::int64_t curve_position_of(const cube_curve_spec& spec,
                               const mesh::cubed_sphere& mesh, int element);

/// The element at position `pos` along the curve `spec` describes — the
/// exact inverse of curve_position_of, by the inverse point query
/// (sfc::curve_locator::cell_at). No allocation:
///   element_at(spec, mesh, curve_position_of(spec, mesh, e)) == e.
int element_at(const cube_curve_spec& spec, const mesh::cubed_sphere& mesh,
               std::int64_t pos);

/// Calls fn(element) for every position in [first, last) along the curve
/// `spec` describes, in curve order: the i-th call gets
/// element_at(spec, mesh, first + i). One sfc::curve_locator::for_each_cell
/// walk per face block the range touches, so a position costs about one
/// table lookup; no allocation. Throws sfp::contract_error unless
/// 0 <= first <= last <= K and the spec's side is mesh.ne().
template <class Fn>
void for_each_element(const cube_curve_spec& spec,
                      const mesh::cubed_sphere& mesh, std::int64_t first,
                      std::int64_t last, Fn&& fn) {
  const int ne = mesh.ne();
  SFP_REQUIRE(spec.face_curve.side() == ne,
              "curve spec side must equal mesh Ne");
  SFP_REQUIRE(first >= 0 && first <= last && last <= mesh.num_elements(),
              "curve position range out of range");
  const std::int64_t area = std::int64_t{ne} * ne;
  // Face block b holds positions [block_begin, block_begin + area).
  std::int64_t block_begin = 0;
  for (std::size_t b = 0; b < 6 && block_begin < last;
       ++b, block_begin += area) {
    const std::int64_t lo = std::max(first, block_begin);
    const std::int64_t hi = std::min(last, block_begin + area);
    if (lo >= hi) continue;
    const int face = spec.face_order[b];
    spec.face_curve.for_each_cell(
        lo - block_begin, hi - lo,
        spec.orientation[static_cast<std::size_t>(face)],
        [&](sfc::cell c) { fn(mesh.element_id(face, c.x, c.y)); });
  }
}

/// Build the global curve for `mesh` using `face_schedule` (whose side must
/// equal mesh.ne()). Throws sfp::contract_error if Ne is not SFC-compatible
/// or if no stitching exists (the latter would indicate a broken generator —
/// the constructive search over all face cycles and orientations is
/// exhaustive).
cube_curve build_cube_curve(const mesh::cubed_sphere& mesh,
                            const sfc::schedule& face_schedule);

/// Convenience: derive the schedule from mesh.ne() with the given nesting
/// order (paper default: m-Peano refinements first).
cube_curve build_cube_curve(
    const mesh::cubed_sphere& mesh,
    sfc::nesting_order order = sfc::nesting_order::peano_first);

/// Extension beyond the paper: admit 5-fold "Cinco" levels too, covering
/// Ne = 2^n·3^m·5^p (e.g. Ne = 10, 15, 20, 30 — the factor set NCAR's HOMME
/// eventually supported). Falls back to the paper's schedule when Ne has no
/// factor of 5.
cube_curve build_cube_curve_extended(const mesh::cubed_sphere& mesh);

/// Check that `order` is a continuous traversal: every element exactly once,
/// consecutive elements surface-adjacent (sharing an edge). Returns true and
/// leaves `error` empty on success.
bool verify_cube_curve(const mesh::cubed_sphere& mesh,
                       const std::vector<int>& order, std::string* error);

}  // namespace sfp::core
