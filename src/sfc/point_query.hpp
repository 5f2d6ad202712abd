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
// for_each_cell walks a range of positions as an odometer over those
// digits. It decodes the first position once, like cell_at, keeping each
// level's child index, frame state and block coordinates. Each later cell
// is the innermost level's next child: one inverse-table lookup added to
// the block's corner. When that digit wraps, the carry bumps the next
// level up, and only the levels the carry changed are descended again —
// one level per f² cells, two per f⁴, and so on — so a walk costs about
// one lookup per cell and never materialises the curve.
//
// Because the recursion is equivariant under the square's symmetries, the
// curve generated from frame state t is apply(t, generate(...)): starting
// the descent in state t answers the query for the reoriented curve without
// transforming the cell.

#include <algorithm>
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

  /// Frame states: the 8 symmetries of the square. Every table row holds
  /// one entry per state.
  static constexpr std::uint32_t frame_states = 8;

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

  /// Calls fn(cell) for the `count` positions from `first` along
  /// apply(orientation, generate_factors(factors)), in curve order: the
  /// i-th call gets cell_at(first + i, orientation). Throws
  /// sfp::contract_error unless 0 <= first, 0 <= count and
  /// first + count <= side².
  template <class Fn>
  void for_each_cell(std::int64_t first, std::int64_t count,
                     dihedral orientation, Fn&& fn) const;

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
  /// for_each_cell's preconditions.
  void check_walk(std::int64_t first, std::int64_t count,
                  dihedral orientation) const;

  std::array<level, max_levels> levels_{};
  std::size_t depth_ = 0;
  int side_ = 1;
};

template <class Fn>
void curve_locator::for_each_cell(std::int64_t first, std::int64_t count,
                                  dihedral orientation, Fn&& fn) const {
  check_walk(first, count, orientation);
  if (count == 0) return;
  if (depth_ == 0) {
    fn(cell{0, 0});
    return;
  }
  // The odometer, per level l: the child index (the position's base-f²
  // digit at l), the frame state l is read in, and the coordinates of the
  // level-l block the digits above l chose, in units of that block.
  std::array<std::uint32_t, max_levels> child{}, state{}, bx{}, by{};
  auto rest = static_cast<std::uint64_t>(first);
  for (std::size_t l = 0; l < depth_; ++l) {
    child[l] = static_cast<std::uint32_t>(rest / levels_[l].area_below);
    rest -= child[l] * levels_[l].area_below;
  }
  const std::size_t inner = depth_ - 1;
  // Level l's entry for its current child sets level l + 1's state and
  // block.
  const auto descend = [&](std::size_t l) {
    const level& lv = levels_[l];
    // A table entry is 16 bits wide.
    const auto e = static_cast<std::uint32_t>(
        lv.inverse[child[l] * frame_states + state[l]]);
    state[l + 1] = e & (frame_states - 1);
    bx[l + 1] = bx[l] * lv.factor + (e >> 3 & 0xF);
    by[l + 1] = by[l] * lv.factor + (e >> 7);
  };
  state[0] = static_cast<std::uint32_t>(orientation);
  for (std::size_t l = 0; l < inner; ++l) descend(l);

  const level& in = levels_[inner];
  const std::uint32_t cells = in.factor * in.factor;
  for (;;) {
    // The rest of the innermost block, one table lookup per cell.
    const std::uint16_t* inv = in.inverse + state[inner];
    const std::uint32_t x0 = bx[inner] * in.factor, y0 = by[inner] * in.factor;
    const std::uint32_t from = child[inner];
    const auto stop = static_cast<std::uint32_t>(
        std::min<std::int64_t>(cells, from + count));
    for (std::uint32_t c = from; c < stop; ++c) {
      const std::uint32_t e = inv[c * frame_states];
      fn(cell{static_cast<int>(x0 + (e >> 3 & 0xF)),
              static_cast<int>(y0 + (e >> 7))});
    }
    count -= stop - from;
    if (count == 0) return;
    // Carry: zero each digit that wrapped and bump the first that did not.
    // Positions remain, so some level above the innermost takes it.
    std::size_t l = inner;
    for (;;) {
      child[l] = 0;
      --l;
      if (++child[l] < levels_[l].factor * levels_[l].factor) break;
    }
    for (; l < inner; ++l) descend(l);
  }
}

}  // namespace sfp::sfc
