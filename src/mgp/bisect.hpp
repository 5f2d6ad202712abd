#pragma once
// Multilevel graph bisection: coarsen, greedy-graph-growing initial
// bisection, Fiduccia–Mattheyses boundary refinement during uncoarsening.
// Recursive application yields the paper's "RB" partitioner.

#include <vector>

#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace sfp::mgp {

/// Multilevel 2-way split of `g`. Side 0 targets `target0` total vertex
/// weight (side 1 gets the rest). Returns one 0/1 label per vertex.
/// `tol` bounds each side at ceil(tol * target).
std::vector<graph::vid> bisect(const graph::csr& g, graph::weight target0,
                               double tol, rng& r);

/// FM refinement of an existing 2-way labelling (exposed for tests and for
/// the k-way initial partitioner). Mutates `side` in place; returns the
/// final cut weight.
graph::weight fm_refine(const graph::csr& g, std::vector<graph::vid>& side,
                        graph::weight target0, double tol, int max_passes,
                        rng& r);

/// Recursive multilevel bisection into `nparts` near-equal parts
/// (the METIS "RB" algorithm of paper Section 2).
partition::partition recursive_bisection(const graph::csr& g, int nparts,
                                         rng& r);

}  // namespace sfp::mgp
