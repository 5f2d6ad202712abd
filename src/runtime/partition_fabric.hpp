#pragma once
// Runtime drivers for the distributed SFC partitioner: the adapter that
// carries core::peer_comm over a reliable channel, and the fabric runners
// that execute core::parallel_partition_rank once per virtual rank — over
// the in-process world or the loopback-TCP socket backend — and assemble
// the global plan.
//
// This closes the dependency inversion described in core/dist_scan.hpp:
// core owns the algorithm and the comm interface, runtime owns the wires.
// The payloads are int64 words carried as doubles by bit image (the same
// convention the reliable envelope header uses), so the arithmetic stays
// integer-exact end to end and the assembled plan is bit-identical to the
// serial sfc_partition — whatever the backend, and under message chaos,
// because the reliable layer heals drops/corruption/reorder underneath.

#include <span>
#include <vector>

#include "core/parallel_partition.hpp"
#include "partition/partition.hpp"
#include "runtime/fabric.hpp"
#include "runtime/reliable.hpp"

namespace sfp::runtime {

/// Logical tag for all partitioner traffic inside the reliable envelope
/// (the transport underneath carries untagged datagrams).
inline constexpr int partition_tag = 17;

/// core::peer_comm over a reliable_channel: ordered, exactly-once int64
/// record delivery between virtual ranks. One instance per rank thread,
/// wrapping that rank's own channel. Delivery failures surface as
/// core::peer_lost — attempts > 0 (retransmit exhaustion against a silent
/// peer) maps to a definite loss, a bare recv timeout to a tentative one —
/// so the survivor-regroup layer can sit directly on top.
class reliable_peer_comm final : public core::peer_comm {
 public:
  reliable_peer_comm(reliable_channel& channel, int rank, int size)
      : channel_(&channel), rank_(rank), size_(size) {}

  int rank() const override { return rank_; }
  int size() const override { return size_; }
  void send(int dst, std::span<const std::int64_t> words) override;
  std::vector<std::int64_t> recv(int src) override;
  void forget_peer(int peer) override;

 private:
  reliable_channel* channel_;
  int rank_;
  int size_;
};

/// Everything a distributed partition run can be configured with.
struct parallel_partition_run_options {
  transport_backend backend = transport_backend::inproc;
  /// Message-level chaos, identical semantics on both backends.
  fault_plan faults;
  /// Byte-stream chaos (socket backend only).
  stream_fault_plan stream_faults;
  /// Reliable-layer tuning (retransmit budget, timeouts, epoch).
  reliable_options reliable;
  /// Splitter-search tuning, passed through to the core algorithm.
  core::parallel_partition_options partition;
  /// Survivor-regroup tuning: quorum and the silence patience budget.
  core::regroup_options regroup;
  /// Group reconfigurations a run absorbs before the escalation ladder
  /// gives up (decide_regroup); each one restarts the splitter search from
  /// scratch over the shrunken group.
  int max_recoveries = 3;
};

/// What a distributed partition run produced, plus what it cost.
struct parallel_partition_report {
  /// The assembled global plan — bit-identical to the serial slicer's.
  /// Meaningless when `aborted` is true.
  partition::partition plan;
  /// First curve position of every part p >= 1 (size nparts−1).
  std::vector<std::int64_t> boundaries;
  /// Per-rank splitter-search accounting, indexed by rank. Under recovery
  /// a rank's stats accumulate across its re-execution attempts.
  std::vector<core::parallel_partition_stats> rank_stats;
  /// Fabric robustness totals (zero for the solo num_ranks == 1 path).
  rank_counters counters;
  /// Reliable-layer totals, summed over ranks.
  reliable_stats reliable;
  /// Socket-layer totals (socket backend only).
  socket_stats socket;
  /// True when no surviving group could finish: the survivors fell below
  /// regroup quorum, or recovery exceeded max_recoveries. The plan and
  /// boundaries are not populated in that case.
  bool aborted = false;
  /// Group reconfigurations absorbed by the group that produced the plan
  /// (0 = the fault-free fast path).
  int recoveries = 0;
  /// Group epoch of the plan actually assembled (0 = original full group).
  std::uint64_t group_epoch = 0;
  /// World ranks that are not part of the group that produced the plan —
  /// killed, evicted, or quorum-aborted. Empty on the fault-free path.
  std::vector<int> lost_ranks;
  /// Survivor-regroup accounting, summed over ranks.
  core::regroup_stats regroup;
};

/// Run the distributed partitioner on `num_ranks` virtual ranks over the
/// configured backend and assemble the global plan. `weights` is the global
/// per-element weight vector (empty = unit weights); each rank only ever
/// touches its own block's slice, mirroring the O(K/P) memory claim.
/// num_ranks == 1 short-circuits to core::solo_comm with no fabric at all.
parallel_partition_report run_parallel_partition(
    const mesh::cubed_sphere& mesh, const core::cube_curve_spec& spec,
    int nparts, std::span<const graph::weight> weights, int num_ranks,
    const parallel_partition_run_options& opts = {});

}  // namespace sfp::runtime
