#pragma once
// The one place that builds fabrics: run_resilient runs a rank program on
// a runtime::world under a fault_plan, one world per attempt. Every rank
// program in the library (the SEAM runners, the distributed partitioner)
// comes through here and speaks the reliable_channel it is handed.
//
// run_resilient is the one attempt loop of every runner (the SEAM
// runners in seam/distributed.hpp and run_parallel_partition), and holds
// the escalation ladder. Of the two fabric failures, a rank death drops
// the killed rank and an unreachable peer drops the peer (the thrower is
// the healthy side); the loop restarts on the surviving world ranks,
// renumbered densely, until an attempt completes, the recovery budget is
// spent or no rank survives.
//
// Settling: a rank program sends and receives without settling between
// its own exchanges; run_resilient closes every rank body with one
// reliable_channel::fence(), so an attempt completes only when every
// frame any of its ranks sent is acked. A program that needs a global
// point mid-run (the SEAM runners' checkpoint seal) fences there itself.
//
// Faults across attempts, for every runner: message faults apply to
// attempt 0 only. A kill that has not fired stays armed on its world rank
// while that rank survives, and its `at_op` counts the rank's ops within
// each attempt. Every rank whose kill fired is lost — also one whose kill
// fired in its channel's teardown, after its body returned — plus the
// escalation victim.

#include <exception>
#include <functional>
#include <set>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/reliable.hpp"
#include "runtime/transport.hpp"

namespace sfp::runtime {

/// Everything a resilient run can be configured with.
struct resilience_options {
  /// Message faults and kills (see "faults across attempts" above).
  fault_plan faults;
  /// Channel tuning (retransmit budget, timeouts). The epoch is
  /// overwritten with the attempt number.
  reliable_options reliable;
  /// Restarts a run absorbs before the ladder gives up.
  int max_recoveries = 3;
};

/// What a resilient run cost, summed over every attempt.
struct resilience_report {
  rank_counters counters;                        ///< fabric totals
  std::vector<rank_counters> per_rank_counters;  ///< by world rank
  reliable_stats reliable;  ///< reliable-channel totals over ranks
  /// Restarts before the attempt that completed (0 = fault-free).
  int recoveries = 0;
  /// World ranks outside the attempt that completed, ascending; every
  /// world rank when the run gave up.
  std::vector<int> lost_ranks;
};

/// One rank of one attempt: the rank's channel (dense rank and size) and
/// the world rank it stands for.
using resilient_rank_fn =
    std::function<void(reliable_channel& channel, int world_rank)>;

/// Called between a failed attempt and the next with the attempt's lost
/// dense ranks; the survivors keep their order.
using restart_fn = std::function<void(const std::set<int>& lost)>;

/// Run `rank_main` on `num_ranks` world ranks, restarting on the survivors
/// after every rank death or unreachable peer while
/// attempt < max_recoveries. Each rank gets a fresh reliable_channel per
/// attempt, which the loop settles with one fence() after `rank_main`
/// returns.
/// `on_restart` (may be empty) runs before each restart. Accumulates into
/// `report` and returns null when an attempt completed, else the root
/// cause of the attempt the ladder refused. Any other exception (a
/// contract violation, a model assertion) propagates.
std::exception_ptr run_resilient(int num_ranks,
                                 const resilience_options& opts,
                                 const resilient_rank_fn& rank_main,
                                 const restart_fn& on_restart,
                                 resilience_report& report);

}  // namespace sfp::runtime
