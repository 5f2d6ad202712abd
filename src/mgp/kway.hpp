#pragma once
// Direct multilevel k-way partitioning (METIS "KWAY") and its total-
// communication-volume variant (METIS "TV"), paper Section 2.

#include <vector>

#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace sfp::mgp {

enum class kway_objective { edgecut, total_volume };

/// Multilevel k-way: coarsen, initial partition via recursive bisection on
/// the coarsest graph, then greedy boundary refinement during uncoarsening
/// driven by the chosen objective. Imbalance up to
/// ceil(imbalance_tol * ideal) is accepted when it pays in the objective —
/// exactly the trade the paper observes costing METIS at O(1) elements per
/// processor.
partition::partition kway_partition(const graph::csr& g, int nparts,
                                    kway_objective objective, rng& r);

/// One greedy k-way refinement sweep set (exposed for tests): mutates
/// `labels`, returns the number of vertex moves performed.
int kway_refine(const graph::csr& g, std::vector<graph::vid>& labels,
                int nparts, kway_objective objective, double tol,
                int max_passes, rng& r);

}  // namespace sfp::mgp
