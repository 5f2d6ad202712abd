#pragma once
// The one place that builds fabrics: run a rank program over the in-process
// world or the loopback-TCP socket backend, picked by transport_backend.
// Every rank program in the library (the SEAM runners, the distributed
// partitioner) comes through here and speaks a reliable_channel over the
// transport it is handed, so backend choice is a value, not a code path.

#include <functional>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/socket_transport.hpp"
#include "runtime/transport.hpp"

namespace sfp::runtime {

/// Which fabric to build and what chaos to inject into it.
struct fabric_options {
  transport_backend backend = transport_backend::inproc;
  /// Message-level chaos, identical semantics on both backends.
  fault_plan faults;
  /// Byte-stream chaos (socket backend only), pinned to reliable *data*
  /// frames: acks and fence tokens are too short to match.
  stream_fault_plan stream_faults;
};

/// What a fabric run left behind. Filled in whether or not the run threw.
struct fabric_report {
  std::vector<rank_counters> per_rank;  ///< indexed by rank
  rank_counters counters;               ///< summed over ranks
  socket_stats socket;                  ///< socket backend only
};

/// Run `rank_main` once per rank on `num_ranks` virtual ranks over the
/// chosen backend, with the world::run / socket_fabric::run failure
/// semantics: the first escaping exception aborts the peers and is
/// rethrown here, after `report` (when non-null) has been filled.
void run_fabric(int num_ranks, const fabric_options& opts,
                const std::function<void(transport&)>& rank_main,
                fabric_report* report = nullptr);

}  // namespace sfp::runtime
