#pragma once
// Options for the multilevel graph partitioner (MGP) — this library's
// from-scratch stand-in for METIS (paper Section 2).
//
// The three methods mirror the algorithm families the paper benchmarks:
//  * recursive_bisection — METIS "RB": best load balance, larger edgecut;
//  * kway                — METIS "KWAY": minimises edgecut, tolerates
//                          imbalance up to `imbalance_tol`;
//  * kway_volume         — METIS "TV": k-way refinement driven by total
//                          communication volume instead of edgecut.

#include <cstdint>

namespace sfp::mgp {

enum class method : std::uint8_t {
  recursive_bisection,
  kway,
  kway_volume,
};

/// Allowed imbalance for kway-style refinement: a part may grow to
/// ceil(imbalance_tol * ideal_weight). (RB enforces near-exact splits.)
inline constexpr double imbalance_tol = 1.03;

/// Coarsening stops once the graph has at most this many vertices (RB) or
/// max(coarsen_to, 4*k) vertices (k-way).
inline constexpr int coarsen_to = 48;

/// Maximum refinement passes per uncoarsening level.
inline constexpr int refine_passes = 8;

/// Number of random initial-bisection attempts at the coarsest level.
inline constexpr int init_trials = 4;

struct options {
  method algo = method::kway;

  /// Seed for all randomized tie-breaking; runs are fully deterministic.
  std::uint64_t seed = 20030422;  // IPDPS'03 nod
};

const char* method_name(method m);

}  // namespace sfp::mgp
