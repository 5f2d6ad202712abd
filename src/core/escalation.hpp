#pragma once
// Failure-escalation policy: the ladder between "a message went missing"
// and "re-slice the curve over the survivors".
//
// The runtime heals transient message faults in place (checksum + ack +
// retransmit, see runtime/reliable.hpp). When that machinery gives up it
// surfaces a typed failure; this policy decides — from the failure kind
// alone, with no knowledge of the transport — whether another recovery
// attempt is worthwhile and which rank the recovery should treat as dead:
//
//   rank_killed       -> the thrower is the corpse; recover around it.
//   peer_unreachable  -> the *peer* is presumed dead (the thrower is the
//                        healthy side that exhausted its retransmit
//                        budget); recover around the peer.
//   unknown           -> a logic error, not a fabric fault: never recover.
//
// Kept in core (below the runtime in the layering) so the policy is a pure
// function over plain data. runtime::run_resilient, the one attempt loop
// of both resilient runners (the SEAM runner and the distributed
// partitioner), maps the fabric's exception types to failure_kind and is
// the one caller of this ladder.

namespace sfp::core {

/// How an attempt of a distributed run died, transport-agnostically.
enum class failure_kind {
  rank_killed,       ///< simulated process death inside the thrower
  peer_unreachable,  ///< reliable transport exhausted retransmits to a peer
  unknown,           ///< anything else (model assertion, logic error, ...)
};

/// Outcome of the policy: whether to run another attempt, and which rank
/// the curve re-slice should drop if so.
struct escalation_decision {
  bool recover = false;
  int victim = -1;  ///< pre-failure rank id to recover around
};

/// Decide the next rung of the ladder. `thrower` is the rank whose
/// exception aborted the world, `peer` the remote side named by a
/// peer_unreachable failure (-1 otherwise). `attempt` counts completed
/// attempts (0 = the first run just failed); recovery is allowed while
/// attempt < max_recoveries and at least 2 ranks remain.
escalation_decision decide_escalation(failure_kind kind, int thrower,
                                      int peer, int attempt,
                                      int max_recoveries, int nranks);

}  // namespace sfp::core
