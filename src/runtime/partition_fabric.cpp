#include "runtime/partition_fabric.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/escalation.hpp"
#include "obs/obs.hpp"
#include "util/contract.hpp"

namespace sfp::runtime {

namespace {

static_assert(sizeof(double) == sizeof(std::int64_t),
              "int64 records travel as double bit images");

/// int64 records -> double bit images. memcpy, never a value conversion:
/// arbitrary integer patterns (including ones that alias NaNs) must survive
/// the trip untouched, and the fabric only ever copies payloads.
std::vector<double> to_wire(std::span<const std::int64_t> words) {
  std::vector<double> out(words.size());
  if (!words.empty())
    std::memcpy(out.data(), words.data(), words.size() * sizeof(double));
  return out;
}

std::vector<std::int64_t> from_wire(std::span<const double> payload) {
  std::vector<std::int64_t> out(payload.size());
  if (!payload.empty())
    std::memcpy(out.data(), payload.data(),
                payload.size() * sizeof(std::int64_t));
  return out;
}

/// Write one range's labels into the global plan at its element ids.
void scatter_labels(const core::local_partition& part,
                    partition::partition& plan) {
  SFP_ASSERT(part.elements.size() == part.labels.size(),
             "one element id per labelled position");
  for (std::size_t i = 0; i < part.elements.size(); ++i)
    plan.part_of[static_cast<std::size_t>(part.elements[i])] = part.labels[i];
}

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

void reliable_peer_comm::send(int dst, std::span<const std::int64_t> words) {
  SFP_REQUIRE(dst >= 0 && dst < size_ && dst != rank_,
              "send destination must be another rank in the group");
  const std::vector<double> image = to_wire(words);
  channel_->send(dst, image);
}

std::vector<std::int64_t> reliable_peer_comm::recv(int src) {
  SFP_REQUIRE(src >= 0 && src < size_ && src != rank_,
              "recv source must be another rank in the group");
  return from_wire(channel_->recv(src));  // lint: blocking-ok — reliable recv pumps the progress engine and fails over to peer_unreachable after recv_timeout
}

parallel_partition_report run_parallel_partition(
    const mesh::cubed_sphere& mesh, const core::cube_curve_spec& spec,
    int nparts, std::span<const graph::weight> weights, int num_ranks,
    const parallel_partition_run_options& opts) {
  SFP_TRACE_SCOPE_CAT("runtime.parallel_partition", "runtime");
  SFP_REQUIRE(num_ranks >= 1, "need at least one rank");
  const auto k = static_cast<std::size_t>(mesh.num_elements());
  SFP_REQUIRE(weights.empty() || weights.size() == k,
              "weights must be empty or one per element");
  static obs::counter& runs = obs::registry::global().get_counter(
      "runtime.parallel_partition.runs");
  static obs::counter& recoveries_counter =
      obs::registry::global().get_counter("partition.recoveries");
  runs.inc();

  parallel_partition_report report;
  report.plan.num_parts = nparts;
  report.plan.part_of.assign(k, 0);
  report.rank_stats.assign(static_cast<std::size_t>(num_ranks), {});
  report.per_rank_counters.assign(static_cast<std::size_t>(num_ranks), {});

  // World ranks of the current attempt, ascending.
  std::vector<int> alive(static_cast<std::size_t>(num_ranks));
  std::iota(alive.begin(), alive.end(), 0);
  for (int attempt = 0;; ++attempt) {
    const int n = static_cast<int>(alive.size());
    std::vector<core::local_partition> parts(static_cast<std::size_t>(n));
    const auto stats_of = [&](int dense) {
      return &report.rank_stats[static_cast<std::size_t>(
          alive[static_cast<std::size_t>(dense)])];
    };
    if (n == 1) {
      core::solo_comm solo;
      parts[0] = core::parallel_partition_rank(mesh, spec, nparts, weights,
                                               solo, stats_of(0));
    } else {
      SFP_TRACE_SCOPE_CAT("partition.attempt", "runtime");
      fabric_options fopts;
      fopts.backend = opts.backend;
      fopts.faults = attempt_faults(opts.faults, alive, attempt);
      if (attempt == 0) fopts.stream_faults = opts.stream_faults;
      std::vector<reliable_stats> reliable(static_cast<std::size_t>(n));
      fabric_report frep;
      rank_failure failure = run_fabric_attempt(
          n, fopts,
          [&](transport& t) {
            const auto r = static_cast<std::size_t>(t.rank());
            reliable_channel channel(t, opts.reliable);
            reliable_peer_comm comm(channel, t.rank(), t.size());
            parts[r] = core::parallel_partition_rank(
                mesh, spec, nparts, weights, comm, stats_of(t.rank()));
            channel.flush();
            channel.fence();
            reliable[r] = channel.stats();
          },
          &frep);
      report.counters += frep.counters;
      report.socket += frep.socket;
      for (const reliable_stats& s : reliable) report.reliable += s;

      // Every rank whose kill fired is lost — also one that fired in its
      // channel's teardown after the fence, which ends no rank body: a
      // fired kill always costs a restart.
      std::vector<int> lost;
      for (int r = 0; r < n; ++r) {
        const rank_counters& c = frep.per_rank[static_cast<std::size_t>(r)];
        report.per_rank_counters[static_cast<std::size_t>(
            alive[static_cast<std::size_t>(r)])] += c;
        if (c.injected_kills > 0) lost.push_back(r);
      }
      if (failure.error || !lost.empty()) {
        if (!failure.error) {
          failure.kind = core::failure_kind::rank_killed;
          failure.thrower = lost.front();
        }
        const core::escalation_decision d = core::decide_escalation(
            failure.kind, failure.thrower, failure.peer, attempt,
            opts.max_recoveries, n);
        if (d.recover) lost.push_back(d.victim);
        std::vector<int> survivors;
        for (int r = 0; r < n; ++r)
          if (std::find(lost.begin(), lost.end(), r) == lost.end())
            survivors.push_back(alive[static_cast<std::size_t>(r)]);
        if (!d.recover || survivors.empty()) {
          report.aborted = true;
          report.plan.part_of.clear();
          report.lost_ranks.resize(static_cast<std::size_t>(num_ranks));
          std::iota(report.lost_ranks.begin(), report.lost_ranks.end(), 0);
          return report;
        }
        alive = std::move(survivors);
        ++report.recoveries;
        recoveries_counter.inc();
        continue;
      }
    }

    // The attempt completed: its ranges tile [0, K) in dense rank order.
    for (const core::local_partition& part : parts) {
      SFP_ASSERT(part.labels.size() ==
                     static_cast<std::size_t>(part.end - part.begin),
                 "deposit length must match its range");
      scatter_labels(part, report.plan);
    }
    report.boundaries = std::move(parts.front().boundaries);
    for (int r = 0; r < num_ranks; ++r)
      if (!std::binary_search(alive.begin(), alive.end(), r))
        report.lost_ranks.push_back(r);
    return report;
  }
}

}  // namespace sfp::runtime
