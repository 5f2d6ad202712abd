#pragma once
// Space-filling-curve generation on a P×P grid (paper Section 3).
//
// Both generators are expressed in one frame-recursion framework. A *frame*
// is an origin corner O plus two perpendicular span vectors A (major) and B
// (secondary); the curve covering a frame always ENTERS at O and EXITS at
// O + A — net displacement purely along the major vector. This shared
// entry/exit convention is exactly the property the paper identifies as what
// lets Hilbert and m-Peano refinements nest into a Hilbert-Peano curve: a
// refinement step only ever replaces a frame with smaller frames obeying the
// same convention, so any schedule of 2-fold (Hilbert) and 3-fold (m-Peano)
// refinements yields a valid curve on a grid of side P = 2^n · 3^m.
//
// Correctness argument (verified exhaustively by the property tests): within
// a generator, consecutive children chain corner-to-corner (child k's exit
// corner equals child k+1's entry corner, an endpoint of their shared edge),
// the first child inherits the parent's entry corner and the last child the
// parent's exit corner. By induction the first/last leaf cells of a subtree
// are the corner cells at the subtree's entry/exit corners, so consecutive
// leaf cells across any junction hug the same corner from two edge-adjacent
// parent cells and are therefore themselves edge-adjacent.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sfp::sfc {

/// Grid cell, x to the right, y up, both in [0, P).
struct cell {
  std::int32_t x = 0;
  std::int32_t y = 0;
  friend bool operator==(const cell&, const cell&) = default;
};

/// One recursion step: subdivide each frame 2×2 (Hilbert), 3×3 (m-Peano),
/// or 5×5 ("Cinco" — the factor NCAR's HOMME later added on top of this
/// paper's scheme; its generator table is synthesized, see sfc/generator.hpp).
enum class refinement : std::uint8_t { hilbert2, peano3, cinco5 };

/// Refinement factor (2, 3 or 5).
int factor_of(refinement r);

/// Sequence of refinement steps, outermost first. The grid side it produces
/// is the product of the factors.
using schedule = std::vector<refinement>;

/// Grid side produced by a schedule (product of refinement factors).
int side_of(const schedule& s);

/// How to order the mixed levels of a Hilbert-Peano schedule.
enum class nesting_order : std::uint8_t {
  peano_first,    ///< all 3-fold levels, then all 2-fold levels (paper default)
  hilbert_first,  ///< all 2-fold levels, then all 3-fold levels
  interleaved,    ///< alternate 3,2,3,2,... while both remain
};

/// Factor P into a schedule, or nullopt if P is not of the form 2^n · 3^m
/// with P >= 2. Pure Hilbert (P=2^n) and pure m-Peano (P=3^m) are the
/// degenerate cases the paper's Table 1 resolutions use.
std::optional<schedule> schedule_for(int side,
                                     nesting_order order = nesting_order::peano_first);

/// Extension beyond the paper: also admit 5-fold ("Cinco") refinement
/// levels, covering P = 2^n · 3^m · 5^p (e.g. Ne = 10, 15, 20, 30). Higher
/// factors always refine first (coarser structure), mirroring the paper's
/// Peano-before-Hilbert default.
std::optional<schedule> extended_schedule_for(int side);

/// True if `side` is partitionable by some SFC schedule (side = 2^n 3^m,
/// side >= 2 — the paper's restriction on problem size).
bool is_sfc_compatible(int side);

/// True for the extended factor set 2^n · 3^m · 5^p.
bool is_sfc_compatible_extended(int side);

/// Generate the curve for a schedule: the returned vector lists all
/// side²  cells in traversal order. The curve enters at cell (0,0) and exits
/// at cell (side-1, 0).
std::vector<cell> generate(const schedule& s);

/// Fully general form: generate from a raw factor list (outermost first).
/// Any factor with a generator table works (2, 3, 5, and most small factors
/// via synthesis — see sfc/generator.hpp), so sides like 7 or 14 become
/// partitionable beyond both the paper and HOMME.
std::vector<cell> generate_factors(const std::vector<int>& factors);

/// Convenience wrappers.
std::vector<cell> hilbert_curve(int levels);      ///< side 2^levels
std::vector<cell> peano_curve(int levels);        ///< side 3^levels
/// Hilbert-Peano curve on a side-P grid (P = 2^n 3^m); throws via
/// SFP_REQUIRE if P is not SFC-compatible.
std::vector<cell> hilbert_peano_curve(int side,
                                      nesting_order order = nesting_order::peano_first);

/// Inverse map: result[y*side + x] = position of (x,y) along the curve.
std::vector<std::int64_t> curve_index(const std::vector<cell>& curve, int side);

/// Point query: the position of one cell along the curve a factor list
/// generates, by one transition-table lookup per refinement level —
/// O(depth) time, no allocation, no curve materialized (sfc/point_query.hpp
/// has the tables and the oriented form). Agrees with generate():
///   curve_position_factors(f, generate_factors(f)[i]) == i  for every i.
/// This is what lets a distributed partitioner rank compute SFC keys for
/// just its own elements instead of holding the full P×P traversal.
std::int64_t curve_position_factors(const std::vector<int>& factors, cell c);

/// Schedule form of the point query.
std::int64_t curve_position(const schedule& s, cell c);

/// Human-readable name ("hilbert", "m-peano", "hilbert-peano") for a schedule.
std::string schedule_name(const schedule& s);

}  // namespace sfp::sfc
