#pragma once
// Runtime drivers for the distributed SFC partitioner: the adapter that
// carries core::peer_comm over a reliable channel, and the fabric runners
// that execute core::parallel_partition_rank once per virtual rank — over
// the in-process world or the loopback-TCP socket backend — and assemble
// the global plan.
//
// Recovery is a restart. The plan is a pure function of the curve, the
// weights and the part count — not of the rank count — so when a rank dies
// the fabric aborts the attempt and the driver reruns the partition from
// scratch on the surviving world ranks, renumbered densely, through the
// same core::decide_escalation ladder as the SEAM resilient runner.
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

/// core::peer_comm over a reliable_channel: ordered, exactly-once int64
/// record delivery between virtual ranks. One instance per rank thread,
/// wrapping that rank's own channel. Delivery failures surface as the
/// channel's peer_unreachable_error, which ends the attempt.
class reliable_peer_comm final : public core::peer_comm {
 public:
  reliable_peer_comm(reliable_channel& channel, int rank, int size)
      : channel_(&channel), rank_(rank), size_(size) {}

  int rank() const override { return rank_; }
  int size() const override { return size_; }
  void send(int dst, std::span<const std::int64_t> words) override;
  std::vector<std::int64_t> recv(int src) override;

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
  /// Reliable-layer tuning (retransmit budget, timeouts).
  reliable_options reliable;
  /// Restarts a run absorbs before the escalation ladder gives up
  /// (core::decide_escalation); each one reruns the partition from
  /// scratch on the surviving ranks.
  int max_recoveries = 3;
};

/// What a distributed partition run produced, plus what it cost.
struct parallel_partition_report {
  /// The assembled global plan — bit-identical to the serial slicer's.
  /// Meaningless when `aborted` is true.
  partition::partition plan;
  /// First curve position of every part p >= 1 (size nparts−1).
  std::vector<std::int64_t> boundaries;
  /// Per-rank accounting, indexed by world rank. Under recovery a rank's
  /// stats accumulate across its attempts.
  std::vector<core::parallel_partition_stats> rank_stats;
  /// Fabric robustness totals over every attempt (zero on the solo path).
  rank_counters counters;
  /// Fabric counters per world rank, summed over every attempt.
  std::vector<rank_counters> per_rank_counters;
  /// Reliable-layer totals, summed over ranks.
  reliable_stats reliable;
  /// Socket-layer totals (socket backend only).
  socket_stats socket;
  /// True when the escalation ladder refused another restart (recovery
  /// budget spent) or no rank survived. The plan and boundaries are not
  /// populated in that case, and every world rank is listed as lost.
  bool aborted = false;
  /// Restarts before the attempt that produced the plan (0 = fault-free).
  int recoveries = 0;
  /// World ranks outside the attempt that produced the plan, ascending:
  /// every rank whose kill fired, and every escalation victim. Empty on
  /// the fault-free path.
  std::vector<int> lost_ranks;
};

/// Run the distributed partitioner on `num_ranks` virtual ranks over the
/// configured backend and assemble the global plan. `weights` is the global
/// per-element weight vector (empty = unit weights); each rank only ever
/// reads the weights of the elements in its own curve range, mirroring the
/// O(K/P) memory claim.
/// num_ranks == 1 short-circuits to core::solo_comm with no fabric at all,
/// and so does an attempt with one surviving rank.
///
/// Fault plan across attempts: message and stream faults apply to attempt
/// 0 only. A kill that has not fired stays armed on its world rank, and its
/// `at_op` counts that rank's ops within each attempt.
parallel_partition_report run_parallel_partition(
    const mesh::cubed_sphere& mesh, const core::cube_curve_spec& spec,
    int nparts, std::span<const graph::weight> weights, int num_ranks,
    const parallel_partition_run_options& opts = {});

}  // namespace sfp::runtime
