#include "runtime/fabric.hpp"

#include <exception>

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

}  // namespace sfp::runtime
