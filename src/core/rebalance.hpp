#pragma once
// Dynamic load rebalancing on the space-filling curve.
//
// The paper's partitioner is static, but the curve formulation has a
// property the graph methods lack: when element weights drift (e.g. physics
// cost following the day/night terminator), re-slicing the *same* curve
// with the new weights only shifts segment boundaries, so the number of
// elements that change owner — the data that must migrate — stays small and
// proportional to the imbalance, not to the problem size. This module makes
// that operation and its accounting first-class.

#include <cstdint>
#include <span>

#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "partition/partition.hpp"

namespace sfp::core {

/// How much state would have to move to get from `from` to `to`.
struct migration_stats {
  std::int64_t moved_elements = 0;   ///< elements whose owner changed
  graph::weight moved_weight = 0;    ///< their total (new) weight
  double moved_fraction = 0;         ///< moved_elements / total elements
};

/// Compare two partitions of the same element set (they may have different
/// part counts). Weights may be empty (unit weights).
migration_stats migration_between(const partition::partition& from,
                                  const partition::partition& to,
                                  std::span<const graph::weight> weights = {});

/// Relabel `target`'s parts to maximize element overlap with `reference`
/// (greedy assignment on the overlap matrix — the standard "remap" step
/// after repartitioning). The partition's content is unchanged, only the
/// processor numbers of whole parts swap, so quality metrics are untouched
/// while migration volume drops. Part counts may differ: target labels stay
/// in [0, target.num_parts), so a reference label outside that range (the
/// shrinking case) cannot be claimed and its elements count as moved.
void remap_to_maximize_overlap(const partition::partition& reference,
                               partition::partition& target);

/// Result of planning recovery from the loss of one rank (see
/// plan_recovery).
struct recovery_plan {
  /// The survivors' partition, with num_parts = old num_parts - 1.
  partition::partition part;
  /// Physical identity of each new part: survivor_of[new label] is the
  /// pre-failure label of the process that keeps hosting those elements.
  std::vector<graph::vid> survivor_of;
  /// Migration under that identity map: exactly the failed part's elements.
  migration_stats migration;
};

/// Plan recovery after part `failed` is lost: re-slice the curve into
/// num_parts-1 contiguous segments by keeping every surviving segment
/// boundary and splitting the failed part's span of the curve at its weight
/// midpoint between the two curve-adjacent surviving parts. Only the failed
/// part's elements change owner — migration is O(K / nparts) regardless of
/// mesh size, the SFC property the paper's re-slicing argument rests on —
/// at the price of up to 1.5x load on the two absorbing neighbours (a later
/// rebalance() call can restore balance at extra migration cost). Weights
/// may be empty (unit weights).
recovery_plan plan_recovery(const cube_curve& curve,
                            const partition::partition& current, int failed,
                            std::span<const graph::weight> weights = {});

/// Re-slice the curve under new weights, then remap labels against
/// `current` (when part counts match) so only genuinely re-assigned
/// elements migrate. Returns the new partition and, if `stats` is non-null,
/// the migration cost relative to `current`.
partition::partition rebalance(const cube_curve& curve,
                               const partition::partition& current,
                               std::span<const graph::weight> new_weights,
                               int nparts, migration_stats* stats = nullptr);

}  // namespace sfp::core
