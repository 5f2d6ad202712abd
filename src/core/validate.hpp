#pragma once
// Deep validation of curve-sliced partition plans — the invariants the
// paper's load-balance argument rests on, as a structured diagnostic.
//
// Invariant slugs are stable:
//
//   plan.size                partition size != traversal length
//   plan.label-range         a label is outside [0, num_parts)
//   plan.ownership           order is not a permutation / an element is not
//                            owned exactly once
//   plan.part-empty          a part received no elements
//   plan.segment-contiguity  a part's elements are not one contiguous curve
//                            segment
//   plan.balance             a part exceeds the weighted-segment bound
//                            slack · (W/nparts + w_max) — or, for unit
//                            weights at slack 1, exact ⌊K/n⌋/⌈K/n⌉ balance

#include <span>

#include "core/cube_curve.hpp"
#include "partition/partition.hpp"
#include "util/contract.hpp"

namespace sfp::core {

/// Audit a plan against the traversal it was sliced from. `weights` is per
/// element id (empty = unit weights). `balance_slack` scales the per-part
/// weight bound; pass 1.0 for freshly sliced plans and 1.5 for recovery
/// plans, whose absorbing neighbours legitimately run up to 1.5x load; a
/// slack <= 0 skips the balance check entirely (structure-only audit).
/// O(K).
diagnostic validate_plan(const partition::partition& p,
                         std::span<const int> order,
                         std::span<const graph::weight> weights = {},
                         double balance_slack = 1.0);

/// Convenience overload against a stitched cube curve.
diagnostic validate_plan(const partition::partition& p,
                         const cube_curve& curve,
                         std::span<const graph::weight> weights = {},
                         double balance_slack = 1.0);

}  // namespace sfp::core
