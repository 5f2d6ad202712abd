#pragma once
// Deep curve validation returning structured diagnostics, for audit-tier
// checks, tests, fuzz harnesses and users validating custom schedules.
//
// Invariant slugs are stable:
//
//   curve.cell-count   curve does not have exactly side² cells
//   curve.cell-range   a cell lies outside the side×side grid
//   curve.revisit      a cell is visited more than once (not a path)
//   curve.unit-step    consecutive cells are not 4-adjacent (diagonal/jump)
//   curve.entry        curve does not enter at (0, 0)
//   curve.exit         curve does not exit at (side-1, 0)
//   schedule.empty     schedule has no refinement steps
//   schedule.side      schedule side overflows or is not >= 2

#include <vector>

#include "sfc/curve.hpp"
#include "util/contract.hpp"

namespace sfp::sfc {

/// Hamiltonian-path + unit-step audit: exactly side² distinct in-range
/// cells, every consecutive pair 4-adjacent. Does not constrain endpoints
/// (use validate_curve for the full entry/exit convention). O(side²).
diagnostic validate_curve_path(const std::vector<cell>& curve, int side);

/// validate_curve_path plus this library's frame convention: the curve
/// enters at (0,0) and exits at (side-1, 0).
diagnostic validate_curve(const std::vector<cell>& curve, int side);

/// Generate `s`'s curve and fully validate it — the audit check for
/// Hilbert / m-Peano / composite (and synthesized-factor) schedules.
diagnostic validate_schedule(const schedule& s);

}  // namespace sfp::sfc
