#include "runtime/fabric.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <set>

#include "obs/trace.hpp"
#include "runtime/world.hpp"
#include "util/contract.hpp"

namespace sfp::runtime {

namespace {

/// The fault plan of one attempt over the world ranks `alive` (ascending;
/// dense rank i is world rank alive[i]): every kill armed on a surviving
/// rank, renumbered densely — a rank whose kill fired is never alive — and
/// the message faults on attempt 0 only.
fault_plan attempt_faults(const fault_plan& plan, const std::vector<int>& alive,
                          int attempt) {
  fault_plan out;
  out.seed = plan.seed;
  if (attempt == 0) out.message_faults = plan.message_faults;
  for (const fault_plan::kill_spec& k : plan.kills) {
    const auto it = std::lower_bound(alive.begin(), alive.end(), k.rank);
    if (it != alive.end() && *it == k.rank)
      out.kills.push_back({static_cast<int>(it - alive.begin()), k.at_op});
  }
  return out;
}

}  // namespace

std::exception_ptr run_resilient(int num_ranks,
                                 const resilience_options& opts,
                                 const resilient_rank_fn& rank_main,
                                 const restart_fn& on_restart,
                                 resilience_report& report) {
  SFP_REQUIRE(num_ranks >= 1, "need at least one rank");
  SFP_REQUIRE(opts.max_recoveries >= 0, "max_recoveries must be >= 0");
  report.per_rank_counters.assign(static_cast<std::size_t>(num_ranks), {});
  // World ranks of the current attempt, ascending.
  std::vector<int> alive(static_cast<std::size_t>(num_ranks));
  std::iota(alive.begin(), alive.end(), 0);
  for (int attempt = 0;; ++attempt) {
    SFP_TRACE_SCOPE_CAT("runtime.attempt", "runtime");
    const int n = static_cast<int>(alive.size());
    const fault_plan faults = attempt_faults(opts.faults, alive, attempt);
    reliable_options ropts = opts.reliable;
    ropts.epoch = static_cast<std::uint64_t>(attempt);
    std::vector<reliable_stats> reliable(static_cast<std::size_t>(n));
    world w(n, faults);
    // The rank the next attempt drops: a killed rank is its own victim,
    // while an unreachable peer is presumed dead in place of the healthy
    // rank that exhausted its retransmit budget on it.
    int victim = -1;
    std::exception_ptr error;
    // Only the root-cause exception reaches here; every other rank holds a
    // cascading world_aborted.
    try {
      w.run([&](transport& t) {
        const auto r = static_cast<std::size_t>(t.rank());
        reliable_channel channel(t, ropts);
        std::exception_ptr failure;  // a failed attempt's traffic counts
        try {
          rank_main(channel, alive[r]);
          channel.fence();  // the attempt's one closing settle
        } catch (...) {
          failure = std::current_exception();
        }
        reliable[r] = channel.stats();
        if (failure) std::rethrow_exception(failure);
      });
    } catch (const rank_killed& e) {
      victim = e.rank();
      error = std::current_exception();
    } catch (const peer_unreachable_error& e) {
      victim = e.peer();
      error = std::current_exception();
    }
    for (const reliable_stats& s : reliable) report.reliable += s;

    // A fired kill aborts the world (world.hpp), so only a failed attempt
    // has one; more than one kill can fire before the abort lands.
    std::set<int> lost;
    for (int r = 0; r < n; ++r) {
      const rank_counters& c = w.counters(r);
      report.counters += c;
      report.per_rank_counters[static_cast<std::size_t>(
          alive[static_cast<std::size_t>(r)])] += c;
      if (c.injected_kills > 0) lost.insert(r);
    }
    if (!error) {
      for (int r = 0; r < num_ranks; ++r)
        if (!std::binary_search(alive.begin(), alive.end(), r))
          report.lost_ranks.push_back(r);
      return nullptr;
    }
    // A lone rank sends nothing, so it is neither killed nor names an
    // unreachable peer: every failure here has a victim among n >= 2 ranks,
    // and a run with no survivor ends on the size check.
    lost.insert(victim);
    if (attempt >= opts.max_recoveries ||
        static_cast<int>(lost.size()) == n) {
      report.lost_ranks.resize(static_cast<std::size_t>(num_ranks));
      std::iota(report.lost_ranks.begin(), report.lost_ranks.end(), 0);
      return error;
    }
    if (on_restart) on_restart(lost);
    for (auto it = lost.rbegin(); it != lost.rend(); ++it)
      alive.erase(alive.begin() + *it);
    ++report.recoveries;
  }
}

}  // namespace sfp::runtime
