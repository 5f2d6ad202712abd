#pragma once
// Generator synthesis: derive a valid space-filling-curve generator (the
// per-child frame table) for an arbitrary refinement factor.
//
// The paper hand-constructs two generators — Hilbert (factor 2) and
// meandering Peano (factor 3) — and nests them to cover P = 2^n·3^m. The
// construction rules they satisfy are mechanical, so this module *searches*
// for a table satisfying them at any factor f:
//
//   * the children tile the f×f block and form a Hamiltonian path whose
//     consecutive cells share an edge;
//   * child k's exit corner equals child k+1's entry corner, and that
//     corner is an endpoint of the shared edge (the corner-chaining rule
//     that makes the recursion produce edge-connected curves at any depth);
//   * the first child enters at the block's origin corner and the last
//     exits at origin + A (the convention all generators in this library
//     share, so synthesized generators nest freely with Hilbert/m-Peano).
//
// Factor 5 yields the "Cinco" curve that NCAR's HOMME later added for
// Ne = 2^n·3^m·5^p meshes; the same machinery covers factor 7 and beyond,
// extending SFC partitionability to any Ne whose prime factors all admit a
// generator.

#include <vector>

namespace sfp::sfc {

/// Largest factor the generator search (and every per-factor cache) covers.
inline constexpr int max_factor = 16;

/// One child frame in units of the parent's sub-vectors a = A/f, b = B/f:
/// origin = O + oa·a + ob·b,  A' = aa·a + ab·b,  B' = ba·a + bb·b.
struct child_frame {
  int oa, ob;
  int aa, ab;
  int ba, bb;
  friend bool operator==(const child_frame&, const child_frame&) = default;
};

/// Search for a generator table with f² children satisfying the rules
/// above. Deterministic (fixed search order). Returns an empty vector if no
/// generator exists for this factor.
std::vector<child_frame> derive_generator(int factor);

/// The cached generator for `factor`: hand-derived tables for 2 (Hilbert)
/// and 3 (m-Peano), synthesized once per factor for anything else; a
/// cached lookup takes no lock. Throws sfp::contract_error if none exists.
const std::vector<child_frame>& generator_for(int factor);

/// True if `factor` admits a generator (memoized).
bool has_generator(int factor);

}  // namespace sfp::sfc
