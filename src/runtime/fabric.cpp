#include "runtime/fabric.hpp"

#include <exception>
#include <type_traits>

#include "runtime/reliable.hpp"
#include "runtime/world.hpp"

namespace sfp::runtime {

namespace {

template <typename Fabric>
void run_and_report(Fabric& fabric, int num_ranks,
                    const std::function<void(transport&)>& rank_main,
                    fabric_report* report) {
  const auto collect = [&] {
    if (!report) return;
    report->per_rank.clear();
    for (int r = 0; r < num_ranks; ++r)
      report->per_rank.push_back(fabric.counters(r));
    report->counters = fabric.total_counters();
    if constexpr (std::is_same_v<Fabric, socket_fabric>)
      report->socket = fabric.total_stats();
  };
  std::exception_ptr failure;
  try {
    fabric.run(rank_main);
  } catch (...) {
    failure = std::current_exception();
  }
  collect();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

void run_fabric(int num_ranks, const fabric_options& opts,
                const std::function<void(transport&)>& rank_main,
                fabric_report* report) {
  if (report) *report = fabric_report{};
  if (opts.backend == transport_backend::inproc) {
    world w(num_ranks, {.faults = opts.faults});
    run_and_report(w, num_ranks, rank_main, report);
    return;
  }
  socket_fabric_options sopts;
  sopts.faults = opts.faults;
  sopts.stream_faults = opts.stream_faults;
  sopts.stream_fault_min_payload = wire::header_doubles + 1;
  socket_fabric fab(num_ranks, sopts);
  run_and_report(fab, num_ranks, rank_main, report);
}

}  // namespace sfp::runtime
