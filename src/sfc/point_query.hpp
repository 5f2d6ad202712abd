#pragma once
// The SFC point query compiled into per-level transition tables.
//
// Every frame of the curve recursion (sfc/curve.hpp) has one of 8
// orientations: its major vector A along ±x or ±y, and its secondary
// vector B at +90° or -90° from A. Those are exactly the images of the
// canonical frame (A = +x, B = +y) under the 8 symmetries of the square,
// so a frame state is named by the `dihedral` that produces it. Within one
// level of factor f, the child a cell falls in is fixed by the cell's
// base-f digit pair (dx, dy) at that level, and the frame state plus that
// digit cell determine both the child's index in generator order and the
// child's own state. A table of 8·f² entries, built once per factor by a
// single frame descent and memoised process-wide, replaces the child scan:
//
//   (state, digit cell) -> (child index, next state)
//
// A run of k equal factors f with f^k <= 16 is the same kind of level with
// factor f^k, so a locator compiles such runs into one table (a pure
// Hilbert face of side 256 is two lookups of factor 16, not eight of 2).
// Each level's digit comes from a reciprocal multiply precomputed at
// compile time; a query is then one dependent table lookup per compiled
// level, with no division, no branch on the factor and no allocation.
//
// The same descent fills the inverse table of every level,
//
//   (state, child index) -> (digit cell, next state),
//
// so cell_at walks a position's base-f² digits down the frame states and
// reassembles the cell: the exact inverse of position().
//
// Because the recursion is equivariant under the square's symmetries, the
// curve generated from frame state t is apply(t, generate(...)): starting
// the descent in state t answers the query for the reoriented curve without
// transforming the cell.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sfc/curve.hpp"
#include "sfc/transform.hpp"

namespace sfp::sfc {

/// A factor list compiled for point queries. Compiling resolves the
/// memoised tables (lock-free once built); the object is fixed-size and
/// cheap to copy, and every table it points to lives for the process.
class curve_locator {
 public:
  /// The empty factor list: a single cell.
  curve_locator() = default;
  /// Throws sfp::contract_error for a factor without a generator or a side
  /// above 2^20 (the limits generate_factors enforces).
  explicit curve_locator(const std::vector<int>& factors);
  explicit curve_locator(const schedule& s);

  int side() const { return side_; }

  /// Position of `c` along apply(orientation, generate_factors(factors)).
  /// Throws sfp::contract_error if `c` is off the grid.
  std::int64_t position(cell c,
                        dihedral orientation = dihedral::identity) const;

  /// The cell at `pos` along apply(orientation, generate_factors(factors)):
  /// cell_at(position(c, t), t) == c. Throws sfp::contract_error if `pos`
  /// is not in [0, side²).
  cell cell_at(std::int64_t pos,
               dihedral orientation = dihedral::identity) const;

 private:
  /// Deepest compiled schedule: every level has a factor of at least 2 and
  /// the side is at most 2^20.
  static constexpr std::size_t max_levels = 20;

  struct level {
    /// Transition table, indexed (dy·f + dx)·8 + state; each entry packs
    /// child index << 3 | next state.
    const std::uint16_t* next = nullptr;
    /// Its inverse, indexed child index·8 + state; each entry packs
    /// (dy << 4 | dx) << 3 | next state.
    const std::uint16_t* inverse = nullptr;
    /// floor(2^40 / sub) + 1: x·magic >> 40 == x / sub for x < 2^20.
    std::uint64_t magic = 0;
    /// sub²: the number of positions in one child block of this level.
    std::uint64_t area_below = 0;
    std::uint32_t factor = 0;  ///< f (the product of the merged run)
  };

  void compile(std::span<const int> factors);

  std::array<level, max_levels> levels_{};
  std::size_t depth_ = 0;
  int side_ = 1;
};

}  // namespace sfp::sfc
