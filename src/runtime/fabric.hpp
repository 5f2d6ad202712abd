#pragma once
// The one place that builds fabrics: run a rank program on a
// runtime::world whose wire is picked by fabric_options::backend (a direct
// in-process push or loopback TCP). Every rank program in the library (the
// SEAM runners, the distributed partitioner) comes through here and speaks
// a reliable_channel over the transport it is handed, so the wire is a
// value, not a code path.
//
// The resilient runners (seam::run_distributed_resilient and
// run_parallel_partition) run each attempt through run_fabric_attempt,
// which turns the two fabric failures — a rank death and an unreachable
// peer — into the plain data core::decide_escalation climbs.

#include <chrono>
#include <exception>
#include <functional>
#include <vector>

#include "core/escalation.hpp"
#include "runtime/fault.hpp"
#include "runtime/socket_transport.hpp"
#include "runtime/transport.hpp"

namespace sfp::runtime {

/// Everything a fabric run can be configured with: the wire, the chaos to
/// inject, and the socket wire's link timing.
struct fabric_options {
  transport_backend backend = transport_backend::inproc;
  /// Message-level chaos, applied by the fabric above either wire, so one
  /// plan has identical semantics on both.
  fault_plan faults;
  /// Byte-stream chaos (socket wire only), pinned to reliable *data*
  /// frames: acks and fence tokens are too short to match (see
  /// stream_fault).
  stream_fault_plan stream_faults;
  /// Socket wire: idle links carry a heartbeat this often.
  std::chrono::milliseconds heartbeat_interval{20};
  /// Socket wire: a link silent for this long is declared dead by its
  /// receiver.
  std::chrono::milliseconds heartbeat_timeout{2000};
  /// Socket wire: bound on dial + HELLO/HELLO_ACK handshake.
  std::chrono::milliseconds connect_timeout{2000};
  /// Socket wire: how long a stall fault sits on its frame.
  std::chrono::microseconds stall_duration{2000};
};

/// What a fabric run left behind. Filled in whether or not the run threw.
struct fabric_report {
  std::vector<rank_counters> per_rank;  ///< indexed by rank
  rank_counters counters;               ///< summed over ranks
  socket_stats socket;                  ///< socket wire only
};

/// Run `rank_main` once per rank on `num_ranks` virtual ranks with the
/// world::run failure semantics: the first escaping exception aborts the
/// peers and is rethrown here, after `report` (when non-null) has been
/// filled.
void run_fabric(int num_ranks, const fabric_options& opts,
                const std::function<void(transport&)>& rank_main,
                fabric_report* report = nullptr);

/// How a resilient attempt ended: the escalation ladder's inputs, plus the
/// root-cause exception to rethrow when the ladder refuses. `error` is null
/// when every rank completed.
struct rank_failure {
  core::failure_kind kind = core::failure_kind::unknown;
  int thrower = -1;  ///< rank whose exception aborted the world
  int peer = -1;     ///< the unreachable peer (peer_unreachable only)
  std::exception_ptr error;
};

/// run_fabric for the resilient runners: a rank_killed or
/// peer_unreachable_error that aborts the world is returned, mapped to its
/// failure_kind, thrower and peer; any other exception propagates.
rank_failure run_fabric_attempt(int num_ranks, const fabric_options& opts,
                                const std::function<void(transport&)>& rank_main,
                                fabric_report* report = nullptr);

}  // namespace sfp::runtime
