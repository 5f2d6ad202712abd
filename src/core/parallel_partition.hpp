#pragma once
// Distributed SFC partitioning as one prefix sum (ROADMAP item 1, following
// Borrell et al., "Parallel SFC-based mesh partitioning and load
// balancing"): the curve-position space is block-distributed across ranks,
// and each rank walks the elements of its own contiguous position range
// straight from the shared curve spec (core::for_each_element) three
// times — no rank ever materializes the global traversal, or even its own
// range. The first walk sums the range's weight; one allgather of range
// weights gives the total and the weighted prefix at the range's first
// position; the second walk finds every cut that falls inside the range;
// the third writes each owned element's label in place in the caller's
// plan. A rank holds O(nparts + P) words.
//
// The result is *bit-identical* to the serial slicer: sfc_partition's
// midpoint rule and its repair pass are both reproduced exactly —
//
//   * the midpoint rule's cut positions are threshold crossings of the
//     nondecreasing M(i) = 2·S(i) + w(i) (S = exclusive weighted prefix
//     along the curve), which a walk in curve order finds with
//     integer-exact comparisons against p·W thresholds;
//   * the repair pass (never skip a part, never fall behind the tail) is a
//     per-part recurrence on those cut positions — repair_boundaries — that
//     every rank replays identically in O(Nproc).
//
// All communication goes through core::peer_comm (dist_scan.hpp), so the
// same code runs serially (solo_comm) and over the virtual-rank fabric;
// runtime/partition_fabric.hpp provides the drivers.

#include <cstdint>
#include <span>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/dist_scan.hpp"
#include "graph/csr.hpp"
#include "mesh/cubed_sphere.hpp"

namespace sfp::core {

/// What one rank's run covered, filled per rank.
struct parallel_partition_stats {
  /// Always 0: the splitter is one prefix walk, with no refinement rounds,
  /// no probes and no exact window. Only perfbench still reads these three.
  int rounds = 0;
  std::int64_t probes_evaluated = 0;
  std::int64_t window_records = 0;
  std::int64_t local_elements = 0;  ///< owned range size
};

/// Block distribution of the curve-position space: rank r of P owns
/// positions [element_block_begin(K, P, r), element_block_begin(K, P, r+1))
/// — the first K mod P blocks are one position larger. Empty blocks
/// (K < P) are legal; such ranks still participate in every collective.
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

/// The serial midpoint rule's cuts by one distributed prefix walk: for
/// every part p in [1, nparts), the first curve position i with
/// (2·S(i) + w(i))·nparts >= 2·p·total, where S is the exclusive weighted
/// prefix along the curve. `keys` are this rank's contiguous range of
/// positions, ascending by one, and `weights` their weights; the ranges of
/// ranks 0, 1, … tile [0, num_elements) in rank order. Every rank returns
/// the identical vector (index p-1; num_elements when no position
/// qualifies). Collective over `comm`: one exclusive scan and one
/// allgather of the cuts. Requires non-negative weights and
/// total == global weight sum.
std::vector<std::int64_t> find_raw_splitters(
    peer_comm& comm, std::span<const std::int64_t> keys,
    std::span<const graph::weight> weights, std::int64_t num_elements,
    graph::weight total_weight, int nparts);

/// One rank's slice of a distributed plan.
struct local_partition {
  std::int64_t begin = 0;  ///< first owned curve position
  std::int64_t end = 0;    ///< one past the last owned curve position
  /// First curve position of every part p >= 1, identical on all ranks
  /// (size nparts−1) — enough to label *any* element locally.
  std::vector<std::int64_t> boundaries;
};

/// The per-rank program: walk this rank's curve positions from `spec`,
/// find the weighted split points collectively, and write the label of
/// every owned element at its id in `part_of` (size K), which all ranks
/// share. The ranks' ranges are disjoint, so their writes never touch the
/// same element, and once every rank of one run has returned, `part_of`
/// is bit-identical to sfc_partition(curve, nparts, weights).part_of for
/// the curve `spec` describes. A rank writes only its own elements.
/// Collective over `comm`. `weights` is the global per-element vector,
/// read only at the owned elements (empty = unit weights); weights must be
/// positive, as in the serial slicer. Per rank: O(K/P + Nproc + P) time
/// and O(Nproc + P) memory.
local_partition parallel_partition_rank(
    const mesh::cubed_sphere& mesh, const cube_curve_spec& spec, int nparts,
    std::span<const graph::weight> weights, peer_comm& comm,
    std::span<graph::vid> part_of, parallel_partition_stats* stats = nullptr);

}  // namespace sfp::core
