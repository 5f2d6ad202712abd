#pragma once
// The SFC partitioning algorithm (paper Section 3): slice the global
// cubed-sphere curve into Nproc contiguous, (weight-)balanced segments.

#include <span>
#include <vector>

#include "core/cube_curve.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/partition.hpp"

namespace sfp::core {

/// Slice a traversal order into `nparts` contiguous segments balanced by the
/// given per-vertex weights (the paper's "subdivided into equal sized
/// segments"). Uses the midpoint rule: a vertex whose weight interval's
/// midpoint falls in the p-th fraction of total weight goes to part p; for
/// unit weights and nparts | K this yields exactly K/nparts per part. A
/// repair pass guarantees no part is empty whenever nparts <= #vertices.
partition::partition partition_from_order(std::span<const int> order,
                                          std::span<const graph::weight> weights,
                                          int nparts);

/// Equal-count slicing (unit weights).
partition::partition partition_from_order(std::span<const int> order,
                                          int nparts);

/// Full SFC partitioning of the cubed-sphere: build (or reuse) the global
/// curve and slice it. Requires mesh.ne() to be 2^n·3^m.
partition::partition sfc_partition(
    const mesh::cubed_sphere& mesh, int nparts,
    sfc::nesting_order order = sfc::nesting_order::peano_first);

/// As above with an already-built curve (avoids re-stitching in sweeps) and
/// optional per-element weights (empty span = unit weights).
partition::partition sfc_partition(const cube_curve& curve, int nparts,
                                   std::span<const graph::weight> weights = {});

/// The paper's restriction: the SFC approach requires Ne = 2^n·3^m. Nproc is
/// unrestricted, but perfect balance (LB = 0) needs Nproc to divide K.
bool sfc_supports(int ne);

/// Extended factor set with the synthesized Cinco generator: Ne = 2^n·3^m·5^p.
bool sfc_supports_extended(int ne);

/// All processor counts that divide K = 6·Ne² (the counts the paper's
/// experiments use so that "an equal number of spectral elements are
/// allocated to each processor"), in increasing order.
std::vector<int> equal_load_nprocs(int ne);

}  // namespace sfp::core
