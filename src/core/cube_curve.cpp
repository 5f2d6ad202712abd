#include "core/cube_curve.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "obs/obs.hpp"
#include "util/contract.hpp"

namespace sfp::core {

namespace {

using sfc::cell;
using sfc::dihedral;

constexpr int kOpposite[6] = {2, 3, 0, 1, 5, 4};

/// Edge-neighbour of `e` lying on `target_face`, or -1. Corner cells have at
/// most one edge neighbour per foreign face, so the result is unique.
int neighbor_on_face(const mesh::cubed_sphere& mesh, int e, int target_face) {
  for (int edge = 0; edge < 4; ++edge) {
    const int nbr = mesh.edge_neighbor(e, edge);
    if (mesh.element_of(nbr).face == target_face) return nbr;
  }
  return -1;
}

struct search_ctx {
  const mesh::cubed_sphere* mesh;
  int ne;
  cell entry_base{0, 0};
  cell exit_base{0, 0};
  std::array<int, 6> face_order{};
  std::array<dihedral, 6> orient{};  // indexed by position in face_order
  int first_entry_elem = -1;
};

/// Recursively orient faces `pos..5`; `exit_elem` is the last element of the
/// previously oriented face. Returns true on success; prefers (via
/// `want_closed`) solutions whose final element neighbours the first.
bool orient_faces(search_ctx& ctx, int pos, int exit_elem, bool want_closed) {
  if (pos == 6) {
    if (!want_closed) return true;
    return neighbor_on_face(*ctx.mesh, exit_elem, ctx.face_order[0]) ==
           ctx.first_entry_elem;
  }
  const int face = ctx.face_order[static_cast<std::size_t>(pos)];
  const int req_elem = neighbor_on_face(*ctx.mesh, exit_elem, face);
  if (req_elem < 0) return false;
  const mesh::element_ref req = ctx.mesh->element_of(req_elem);
  for (const dihedral t : sfc::all_dihedrals) {
    const cell entry = sfc::apply(t, ctx.entry_base, ctx.ne);
    if (entry.x != req.i || entry.y != req.j) continue;
    const cell ex = sfc::apply(t, ctx.exit_base, ctx.ne);
    const int new_exit = ctx.mesh->element_id(face, ex.x, ex.y);
    ctx.orient[static_cast<std::size_t>(pos)] = t;
    if (orient_faces(ctx, pos + 1, new_exit, want_closed)) return true;
  }
  return false;
}

/// Try every Hamiltonian face sequence starting at face 0 and every starting
/// orientation; fill `out` on success. `tried` counts candidate face
/// sequences actually descended into (observability for the search cost).
bool search_stitching(const mesh::cubed_sphere& mesh, int ne, cell entry_base,
                      cell exit_base, bool want_closed, search_ctx& out,
                      std::int64_t& tried) {
  std::array<int, 5> rest = {1, 2, 3, 4, 5};
  std::sort(rest.begin(), rest.end());
  do {
    // Consecutive faces must be adjacent (not opposite); for closed curves
    // the last face must also neighbour face 0.
    bool ok = kOpposite[0] != rest[0];
    for (std::size_t k = 0; ok && k + 1 < rest.size(); ++k)
      ok = kOpposite[static_cast<std::size_t>(rest[k])] != rest[k + 1];
    if (want_closed && kOpposite[static_cast<std::size_t>(rest[4])] == 0)
      ok = false;
    if (!ok) continue;
    ++tried;

    search_ctx ctx;
    ctx.mesh = &mesh;
    ctx.ne = ne;
    ctx.entry_base = entry_base;
    ctx.exit_base = exit_base;
    ctx.face_order = {0, rest[0], rest[1], rest[2], rest[3], rest[4]};
    for (const dihedral t0 : sfc::all_dihedrals) {
      ctx.orient[0] = t0;
      const cell entry0 = sfc::apply(t0, entry_base, ne);
      const cell exit0 = sfc::apply(t0, exit_base, ne);
      ctx.first_entry_elem = mesh.element_id(0, entry0.x, entry0.y);
      const int exit_elem = mesh.element_id(0, exit0.x, exit0.y);
      if (orient_faces(ctx, 1, exit_elem, want_closed)) {
        out = ctx;
        return true;
      }
    }
  } while (std::next_permutation(rest.begin(), rest.end()));
  return false;
}

}  // namespace

cube_curve_spec spec_of(const cube_curve& curve) {
  cube_curve_spec spec;
  spec.face_curve = sfc::curve_locator(curve.face_schedule);
  spec.face_order = curve.face_order;
  spec.orientation = curve.orientation;
  spec.closed = curve.closed;
  return spec;
}

cube_curve_spec build_cube_curve_spec(const mesh::cubed_sphere& mesh,
                                      const sfc::schedule& face_schedule) {
  const int ne = mesh.ne();
  SFP_REQUIRE(sfc::side_of(face_schedule) == ne,
              "face schedule side must equal mesh Ne");
  // Every generated face curve enters at (0,0) and exits at (side-1, 0) —
  // the shared frame convention (see sfc/curve.hpp) — so the stitch search
  // does not need the materialized curve at all.
  const cell entry_base{0, 0};
  const cell exit_base{ne - 1, 0};

  SFP_OBS_TIMED_SCOPE("core.stitch");
  search_ctx found;
  bool closed = true;
  std::int64_t tried = 0;
  if (!search_stitching(mesh, ne, entry_base, exit_base, /*want_closed=*/true,
                        found, tried)) {
    closed = false;
    const bool ok = search_stitching(mesh, ne, entry_base, exit_base,
                                     /*want_closed=*/false, found, tried);
    SFP_REQUIRE(ok, "no cube stitching exists — face curve generator broken");
  }
  obs::registry::global().get_counter("core.stitch.sequences_tried").add(tried);
  obs::registry::global()
      .get_counter(closed ? "core.stitch.closed" : "core.stitch.open")
      .inc();

  cube_curve_spec out;
  out.face_curve = sfc::curve_locator(face_schedule);
  out.face_order = found.face_order;
  out.closed = closed;
  for (int pos = 0; pos < 6; ++pos) {
    out.orientation[static_cast<std::size_t>(
        found.face_order[static_cast<std::size_t>(pos)])] =
        found.orient[static_cast<std::size_t>(pos)];
  }
  return out;
}

cube_curve_spec build_cube_curve_spec(const mesh::cubed_sphere& mesh,
                                      sfc::nesting_order order) {
  if (mesh.ne() == 1) return build_cube_curve_spec(mesh, sfc::schedule{});
  const auto s = sfc::schedule_for(mesh.ne(), order);
  SFP_REQUIRE(s.has_value(),
              "Ne must be of the form 2^n * 3^m for SFC partitioning "
              "(the paper's restriction on problem size)");
  return build_cube_curve_spec(mesh, *s);
}

std::int64_t curve_position_of(const cube_curve_spec& spec,
                               const mesh::cubed_sphere& mesh, int element) {
  const int ne = mesh.ne();
  SFP_REQUIRE(spec.face_curve.side() == ne,
              "curve spec side must equal mesh Ne");
  SFP_REQUIRE(element >= 0 && element < mesh.num_elements(),
              "element id out of range");
  const mesh::element_ref ref = mesh.element_of(element);
  const auto face = static_cast<std::size_t>(ref.face);
  // The face's block offset in the visit order.
  std::int64_t block = -1;
  for (int pos = 0; pos < 6; ++pos)
    if (spec.face_order[static_cast<std::size_t>(pos)] == ref.face) {
      block = pos;
      break;
    }
  SFP_ASSERT(block >= 0, "face missing from the stitched face order");
  // Point-query the base curve, started in the face's orientation.
  const std::int64_t within =
      spec.face_curve.position(cell{ref.i, ref.j}, spec.orientation[face]);
  return block * static_cast<std::int64_t>(ne) * ne + within;
}

int element_at(const cube_curve_spec& spec, const mesh::cubed_sphere& mesh,
               std::int64_t pos) {
  const int ne = mesh.ne();
  SFP_REQUIRE(spec.face_curve.side() == ne,
              "curve spec side must equal mesh Ne");
  SFP_REQUIRE(pos >= 0 && pos < mesh.num_elements(),
              "curve position out of range");
  const std::int64_t area = static_cast<std::int64_t>(ne) * ne;
  const int face = spec.face_order[static_cast<std::size_t>(pos / area)];
  const cell c = spec.face_curve.cell_at(
      pos % area, spec.orientation[static_cast<std::size_t>(face)]);
  return mesh.element_id(face, c.x, c.y);
}

cube_curve build_cube_curve(const mesh::cubed_sphere& mesh,
                            const sfc::schedule& face_schedule) {
  const int ne = mesh.ne();
  const cube_curve_spec spec = build_cube_curve_spec(mesh, face_schedule);
  const std::vector<cell> base = sfc::generate(face_schedule);

  cube_curve out;
  out.face_schedule = face_schedule;
  out.face_order = spec.face_order;
  out.orientation = spec.orientation;
  out.closed = spec.closed;
  out.order.reserve(static_cast<std::size_t>(mesh.num_elements()));
  for (int pos = 0; pos < 6; ++pos) {
    const int face = spec.face_order[static_cast<std::size_t>(pos)];
    const dihedral t = spec.orientation[static_cast<std::size_t>(face)];
    for (const cell c : base) {
      const cell m = sfc::apply(t, c, ne);
      out.order.push_back(mesh.element_id(face, m.x, m.y));
    }
  }
#if SFP_AUDIT_ENABLED
  // Audit tier: re-verify the stitched traversal against the mesh's own
  // neighbour relation (every element exactly once, consecutive elements
  // surface-adjacent) — the invariant the slicing balance argument rests on.
  std::string audit_err;
  SFP_AUDIT(verify_cube_curve(mesh, out.order, &audit_err),
            "stitched cube curve failed contiguity audit: " + audit_err);
#endif
  return out;
}

cube_curve build_cube_curve(const mesh::cubed_sphere& mesh,
                            sfc::nesting_order order) {
  if (mesh.ne() == 1) return build_cube_curve(mesh, sfc::schedule{});
  const auto s = sfc::schedule_for(mesh.ne(), order);
  SFP_REQUIRE(s.has_value(),
              "Ne must be of the form 2^n * 3^m for SFC partitioning "
              "(the paper's restriction on problem size)");
  return build_cube_curve(mesh, *s);
}

cube_curve build_cube_curve_extended(const mesh::cubed_sphere& mesh) {
  if (mesh.ne() == 1) return build_cube_curve(mesh, sfc::schedule{});
  const auto s = sfc::extended_schedule_for(mesh.ne());
  SFP_REQUIRE(s.has_value(),
              "Ne must be of the form 2^n * 3^m * 5^p for extended SFC "
              "partitioning");
  return build_cube_curve(mesh, *s);
}

bool verify_cube_curve(const mesh::cubed_sphere& mesh,
                       const std::vector<int>& order, std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  const auto k = static_cast<std::size_t>(mesh.num_elements());
  if (order.size() != k) return fail("curve does not list every element");
  std::vector<bool> seen(k, false);
  for (const int e : order) {
    if (e < 0 || static_cast<std::size_t>(e) >= k)
      return fail("element id out of range");
    if (seen[static_cast<std::size_t>(e)])
      return fail("element visited twice");
    seen[static_cast<std::size_t>(e)] = true;
  }
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    bool adjacent = false;
    for (int edge = 0; edge < 4; ++edge)
      adjacent |= mesh.edge_neighbor(order[i], edge) == order[i + 1];
    if (!adjacent) {
      std::ostringstream os;
      os << "elements " << order[i] << " and " << order[i + 1]
         << " (positions " << i << ',' << i + 1 << ") are not edge-adjacent";
      return fail(os.str());
    }
  }
  if (error) error->clear();
  return true;
}

}  // namespace sfp::core
