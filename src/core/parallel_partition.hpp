#pragma once
// Distributed SFC partitioning without a global sort (ROADMAP item 1,
// following Borrell et al., "Parallel SFC-based mesh partitioning and load
// balancing"): the element-id space is block-distributed across ranks, each
// rank computes the SFC keys of its own elements directly from the shared
// curve spec (O(K/P) memory — no rank ever materializes the global
// traversal), and the Nproc−1 weighted split points are located by
// iterative distributed histogram refinement over key space plus one exact
// resolution pass on the last few candidate positions.
//
// The result is *bit-identical* to the serial slicer: sfc_partition's
// midpoint rule and its repair pass are both reproduced exactly —
//
//   * the midpoint rule's cut positions are threshold crossings of the
//     strictly increasing M(i) = 2·S(i) + w(i) (S = exclusive weighted
//     prefix along the curve), which histogram refinement can bracket with
//     integer-exact comparisons against p·W thresholds;
//   * the repair pass (never skip a part, never fall behind the tail) is a
//     per-part recurrence on those cut positions — repair_boundaries — that
//     every rank replays identically in O(Nproc).
//
// All communication goes through core::peer_comm (dist_scan.hpp), so the
// same code runs serially (solo_comm), over the in-process world, and over
// the socket backend; runtime/partition_fabric.hpp provides the drivers.

#include <cstdint>
#include <span>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/dist_scan.hpp"
#include "graph/csr.hpp"
#include "mesh/cubed_sphere.hpp"

namespace sfp::core {

/// Tuning knobs for the splitter search. The defaults resolve tens of
/// millions of keys in a handful of rounds.
struct parallel_partition_options {
  /// Probe positions per unresolved splitter per refinement round; each
  /// round shrinks a splitter's bracket by roughly this factor.
  int histogram_fanout = 16;
  /// Bracket width at which refinement stops and the remaining candidate
  /// positions are exchanged and scanned exactly.
  int window_elements = 32;
};

/// What the splitter search cost, filled per rank.
struct parallel_partition_stats {
  int rounds = 0;                      ///< histogram refinement rounds
  std::int64_t probes_evaluated = 0;   ///< global probe positions, summed over rounds
  std::int64_t window_records = 0;     ///< (key, weight) records in the exact pass
  std::int64_t local_elements = 0;     ///< owned block size
};

/// Block distribution of the element-id space: rank r of P owns ids
/// [element_block_begin(K, P, r), element_block_begin(K, P, r+1)) — the
/// first K mod P blocks are one element larger. Empty blocks (K < P) are
/// legal; such ranks still participate in every collective.
std::int64_t element_block_begin(std::int64_t num_elements, int num_ranks,
                                 int rank);

/// The serial repair pass of partition_from_order, restated on cut
/// positions. `raw[p-1]` is the first curve position whose midpoint falls
/// in part p or beyond (`num_elements` = no such position); the returned
/// `b[p-1]` is the first curve position the repaired plan assigns to part
/// p: b_p = min(max(raw_p, b_{p-1}+1), K − Nproc + p). Identical on every
/// rank, O(Nproc), pure.
std::vector<std::int64_t> repair_boundaries(std::span<const std::int64_t> raw,
                                            std::int64_t num_elements,
                                            int nparts);

/// Distributed histogram refinement: locate, for every part p in
/// [1, nparts), the first curve position i with
/// (2·S(i) + w(i))·nparts >= 2·p·total — the serial midpoint rule's cut —
/// where S is the exclusive weighted prefix along the curve. Keys and
/// weights are this rank's elements sorted by key; every rank returns the
/// identical vector (index p-1; num_elements when no position qualifies).
/// Collective over `comm`. Requires non-negative weights and
/// total == global weight sum; the caller guarantees keys form a global
/// permutation of [0, num_elements).
std::vector<std::int64_t> find_raw_splitters(
    peer_comm& comm, std::span<const std::int64_t> sorted_keys,
    std::span<const graph::weight> sorted_weights, std::int64_t num_elements,
    graph::weight total_weight, int nparts,
    const parallel_partition_options& opts = {},
    parallel_partition_stats* stats = nullptr);

/// One rank's slice of a distributed plan.
struct local_partition {
  std::int64_t begin = 0;  ///< first owned element id
  std::int64_t end = 0;    ///< one past the last owned element id
  /// Part label per owned element, indexed by element id − begin.
  std::vector<graph::vid> labels;
  /// First curve position of every part p >= 1, identical on all ranks
  /// (size nparts−1) — enough to label *any* element locally.
  std::vector<std::int64_t> boundaries;
};

/// The per-rank program: compute this rank's SFC keys from `spec`, find
/// the weighted split points collectively, and label the owned block.
/// Collective over `comm`; the union of all ranks' labels is bit-identical
/// to sfc_partition(curve, nparts, weights) for the curve `spec` describes.
/// `local_weights` is indexed by element id − begin over the owned block
/// (empty = unit weights); weights must be positive, as in the serial
/// slicer. Per rank: O(K/P) memory, O(K/P + Nproc) time for the keys, the
/// radix sort and the labels, and O((probes + Nproc) · log K) per
/// refinement round at a fixed fanout.
local_partition parallel_partition_rank(
    const mesh::cubed_sphere& mesh, const cube_curve_spec& spec, int nparts,
    std::span<const graph::weight> local_weights, peer_comm& comm,
    const parallel_partition_options& opts = {},
    parallel_partition_stats* stats = nullptr);

}  // namespace sfp::core
