#include "sfc/transform.hpp"

#include "util/contract.hpp"

namespace sfp::sfc {

cell apply(dihedral t, cell c, int side) {
  SFP_REQUIRE(side >= 1, "side must be positive");
  SFP_REQUIRE(c.x >= 0 && c.x < side && c.y >= 0 && c.y < side,
              "cell out of range");
  const std::int32_t m = side - 1;
  switch (t) {
    case dihedral::identity: return c;
    case dihedral::rot90: return {static_cast<std::int32_t>(m - c.y), c.x};
    case dihedral::rot180:
      return {static_cast<std::int32_t>(m - c.x),
              static_cast<std::int32_t>(m - c.y)};
    case dihedral::rot270: return {c.y, static_cast<std::int32_t>(m - c.x)};
    case dihedral::flip_x: return {static_cast<std::int32_t>(m - c.x), c.y};
    case dihedral::flip_y: return {c.x, static_cast<std::int32_t>(m - c.y)};
    case dihedral::transpose: return {c.y, c.x};
    case dihedral::anti_transpose:
      return {static_cast<std::int32_t>(m - c.y),
              static_cast<std::int32_t>(m - c.x)};
  }
  SFP_REQUIRE(false, "invalid dihedral");
  return c;
}

std::vector<cell> apply(dihedral t, const std::vector<cell>& curve, int side) {
  std::vector<cell> out;
  out.reserve(curve.size());
  for (const cell c : curve) out.push_back(apply(t, c, side));
  return out;
}

dihedral compose(dihedral second, dihedral first) {
  // Small group: compute by acting on a 3×3 grid and matching the result.
  // (Closed-form tables are easy to get wrong; this is exact and O(1).)
  constexpr int kProbe = 3;
  const cell p0{1, 0}, p1{0, 1};  // images of two independent probes pin down
                                  // the symmetry uniquely
  const cell i0 = apply(second, apply(first, p0, kProbe), kProbe);
  const cell i1 = apply(second, apply(first, p1, kProbe), kProbe);
  for (const dihedral t : all_dihedrals) {
    if (apply(t, p0, kProbe) == i0 && apply(t, p1, kProbe) == i1) return t;
  }
  SFP_REQUIRE(false, "dihedral composition not found (group closure violated)");
  return dihedral::identity;
}

dihedral inverse(dihedral t) {
  for (const dihedral u : all_dihedrals) {
    if (compose(u, t) == dihedral::identity) return u;
  }
  SFP_REQUIRE(false, "dihedral inverse not found");
  return dihedral::identity;
}

std::string_view dihedral_name(dihedral t) {
  switch (t) {
    case dihedral::identity: return "identity";
    case dihedral::rot90: return "rot90";
    case dihedral::rot180: return "rot180";
    case dihedral::rot270: return "rot270";
    case dihedral::flip_x: return "flip_x";
    case dihedral::flip_y: return "flip_y";
    case dihedral::transpose: return "transpose";
    case dihedral::anti_transpose: return "anti_transpose";
  }
  return "?";
}

}  // namespace sfp::sfc
