#include "runtime/partition_fabric.hpp"

#include <algorithm>
#include <cstring>
#include <exception>

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

}  // namespace

void reliable_peer_comm::send(int dst, std::span<const std::int64_t> words) {
  SFP_REQUIRE(dst >= 0 && dst < size() && dst != rank(),
              "send destination must be another rank in the group");
  const std::vector<double> image = to_wire(words);
  channel_->send(dst, image);
}

std::vector<std::int64_t> reliable_peer_comm::recv(int src) {
  SFP_REQUIRE(src >= 0 && src < size() && src != rank(),
              "recv source must be another rank in the group");
  return from_wire(channel_->recv(src));  // lint: blocking-ok — reliable recv pumps the progress engine; it ends in a world abort, in peer_unreachable after max_retransmits quiescent rounds, or in the world's deadlock error
}

parallel_partition_report run_parallel_partition(
    const mesh::cubed_sphere& mesh, const core::cube_curve_spec& spec,
    int nparts, std::span<const graph::weight> weights, int num_ranks,
    const resilience_options& opts) {
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
  // Every rank writes its own range's labels into the plan in place. An
  // attempt's ranges tile [0, K), so the attempt that completes rewrites
  // every label a failed one left behind.
  const std::span<graph::vid> part_of(report.plan.part_of);
  // Each world rank's range, from the attempt that last ran it.
  std::vector<core::local_partition> parts(static_cast<std::size_t>(num_ranks));
  if (num_ranks == 1) {
    core::solo_comm solo;
    parts[0] = core::parallel_partition_rank(mesh, spec, nparts, weights, solo,
                                             part_of, &report.rank_stats[0]);
    report.per_rank_counters.assign(1, {});
  } else {
    const std::exception_ptr error = run_resilient(
        num_ranks, opts,
        [&](reliable_channel& channel, int world_rank) {
          const auto w = static_cast<std::size_t>(world_rank);
          reliable_peer_comm comm(channel);
          parts[w] = core::parallel_partition_rank(
              mesh, spec, nparts, weights, comm, part_of,
              &report.rank_stats[w]);
        },
        nullptr, report);
    recoveries_counter.add(report.recoveries);
    if (error) {
      report.aborted = true;
      report.plan.part_of.clear();
      return report;
    }
  }

  // Every rank of the completed attempt holds the same boundaries.
  for (int r = 0; r < num_ranks; ++r) {
    if (std::binary_search(report.lost_ranks.begin(), report.lost_ranks.end(),
                           r))
      continue;
    report.boundaries =
        std::move(parts[static_cast<std::size_t>(r)].boundaries);
    break;
  }
  return report;
}

}  // namespace sfp::runtime
