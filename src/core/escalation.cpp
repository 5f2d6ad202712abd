#include "core/escalation.hpp"

namespace sfp::core {

escalation_decision decide_escalation(failure_kind kind, int thrower,
                                      int peer, int attempt,
                                      int max_recoveries, int nranks) {
  escalation_decision d;
  switch (kind) {
    case failure_kind::rank_killed:
      d.victim = thrower;
      break;
    case failure_kind::peer_unreachable:
      d.victim = peer;
      break;
    case failure_kind::unknown:
      return d;  // not a fabric fault: always rethrow
  }
  d.recover = d.victim >= 0 && d.victim < nranks && nranks > 1 &&
              attempt < max_recoveries;
  if (!d.recover) d.victim = -1;
  return d;
}

}  // namespace sfp::core
