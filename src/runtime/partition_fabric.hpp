#pragma once
// Runtime drivers for the distributed SFC partitioner: the adapter that
// carries core::peer_comm over a reliable channel, and the fabric runner
// that executes core::parallel_partition_rank once per virtual rank. The
// runner owns the global plan; each rank writes the labels of its own
// curve range into it in place, at their element ids. The ranges are
// disjoint, so no two rank threads write the same label, and nothing is
// gathered or scattered after the join.
//
// Recovery is a restart. The plan is a pure function of the curve, the
// weights and the part count — not of the rank count — so when a rank dies
// the partition reruns from scratch on the surviving world ranks through
// runtime::run_resilient, the attempt loop the SEAM resilient runner
// shares (faults across attempts and the lost-rank rule: fabric.hpp).
//
// This closes the dependency inversion described in core/dist_scan.hpp:
// core owns the algorithm and the comm interface, runtime owns the fabric.
// The payloads are int64 words carried as doubles by bit image (the same
// convention the reliable envelope header uses), so the arithmetic stays
// integer-exact end to end and the assembled plan is bit-identical to the
// serial sfc_partition — also under message chaos,
// because the reliable layer heals drops/corruption/reorder underneath.

#include <span>
#include <vector>

#include "core/parallel_partition.hpp"
#include "partition/partition.hpp"
#include "runtime/fabric.hpp"
#include "runtime/reliable.hpp"

namespace sfp::runtime {

/// core::peer_comm over a reliable_channel: ordered, exactly-once int64
/// record delivery between virtual ranks. One instance per rank thread,
/// wrapping that rank's own channel. Delivery failures surface as the
/// channel's peer_unreachable_error, which ends the attempt.
class reliable_peer_comm final : public core::peer_comm {
 public:
  explicit reliable_peer_comm(reliable_channel& channel)
      : channel_(&channel) {}

  int rank() const override { return channel_->rank(); }
  int size() const override { return channel_->size(); }
  void send(int dst, std::span<const std::int64_t> words) override;
  std::vector<std::int64_t> recv(int src) override;

 private:
  reliable_channel* channel_;
};

/// The old name of the run options, kept only for perfbench, which names it.
using parallel_partition_run_options = resilience_options;

/// What a distributed partition run produced, plus what its attempts cost
/// (the resilience_report fields; zero on the solo path).
struct parallel_partition_report : resilience_report {
  /// The assembled global plan — bit-identical to the serial slicer's.
  /// Meaningless when `aborted` is true.
  partition::partition plan;
  /// First curve position of every part p >= 1 (size nparts−1).
  std::vector<std::int64_t> boundaries;
  /// Per-rank accounting, indexed by world rank. Under recovery a rank's
  /// stats accumulate across its attempts.
  std::vector<core::parallel_partition_stats> rank_stats;
  /// True when the escalation ladder refused another restart (recovery
  /// budget spent) or no rank survived. The plan and boundaries are not
  /// populated in that case, and every world rank is listed as lost.
  bool aborted = false;
};

/// Run the distributed partitioner on `num_ranks` virtual ranks, which
/// write the global plan in place. `weights` is the global
/// per-element weight vector (empty = unit weights); each rank only ever
/// reads the weights, and writes the labels, of the elements in its own
/// curve range.
/// num_ranks == 1 short-circuits to core::solo_comm with no fabric at all.
parallel_partition_report run_parallel_partition(
    const mesh::cubed_sphere& mesh, const core::cube_curve_spec& spec,
    int nparts, std::span<const graph::weight> weights, int num_ranks,
    const resilience_options& opts = {});

}  // namespace sfp::runtime
