#include "runtime/fabric.hpp"

#include <exception>

#include "runtime/reliable.hpp"
#include "runtime/world.hpp"

namespace sfp::runtime {

void run_fabric(int num_ranks, const fabric_options& opts,
                const std::function<void(transport&)>& rank_main,
                fabric_report* report) {
  world w(num_ranks, opts);
  std::exception_ptr failure;
  try {
    w.run(rank_main);
  } catch (...) {
    failure = std::current_exception();
  }
  if (report) {
    report->per_rank.clear();
    for (int r = 0; r < num_ranks; ++r)
      report->per_rank.push_back(w.counters(r));
    report->counters = w.total_counters();
    report->socket = w.socket_totals();
  }
  if (failure) std::rethrow_exception(failure);
}

rank_failure run_fabric_attempt(
    int num_ranks, const fabric_options& opts,
    const std::function<void(transport&)>& rank_main, fabric_report* report) {
  rank_failure failure;
  // Only the root-cause exception reaches here; every other rank holds a
  // cascading world_aborted.
  try {
    run_fabric(num_ranks, opts, rank_main, report);
  } catch (const rank_killed& e) {
    failure.kind = core::failure_kind::rank_killed;
    failure.thrower = e.rank();
    failure.error = std::current_exception();
  } catch (const peer_unreachable_error& e) {
    failure.kind = core::failure_kind::peer_unreachable;
    failure.thrower = e.rank();
    failure.peer = e.peer();
    failure.error = std::current_exception();
  }
  return failure;
}

}  // namespace sfp::runtime
