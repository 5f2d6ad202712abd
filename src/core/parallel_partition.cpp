#include "core/parallel_partition.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "obs/obs.hpp"
#include "util/contract.hpp"
#include "util/safe_int.hpp"

namespace sfp::core {

namespace {

/// The integer-exact dichotomy that places the serial midpoint rule's cut
/// — the first position i with M(i)·nparts >= 2·p·total, where
/// M(i) = 2·S(i)+w(i) — relative to a position x from S(x) alone:
///
///   S(x)·nparts >= p·total  =>  M(x) >= 2·S(x) puts x itself at or above
///                               the threshold, so the cut is <= x;
///   S(x)·nparts <  p·total  =>  every i < x has M(i) = S(i)+S(i+1)
///                               <= 2·S(x), strictly below, so the cut
///                               is >= x.
///
/// Applied at both ends of a rank's range, it names the one rank whose
/// range holds each cut; both directions are valid for any non-negative
/// weights.
bool cut_is_at_or_before(graph::weight s_at_x, int nparts, std::int64_t p,
                         graph::weight total) {
  return checked_mul(s_at_x, nparts) >= checked_mul(p, total);
}

/// The cuts of the range [begin, begin + weights.size()), whose first
/// position has the exclusive prefix `s_begin`. Part p's cut belongs to
/// the rank with S(begin)·nparts < p·total <= S(end)·nparts (rank 0 also
/// takes every p·total <= 0): the cut then lies in [begin, end], so the
/// rank reports its first in-range position that crosses the threshold,
/// else end. Every part has exactly one owner and owners ascend with p, so
/// the rank-ordered concatenation of the reports is the raw cut vector.
std::vector<std::int64_t> walk_raw_cuts(peer_comm& comm, std::int64_t begin,
                                        graph::weight s_begin,
                                        std::span<const graph::weight> weights,
                                        graph::weight total_weight,
                                        int nparts) {
  SFP_TRACE_SCOPE_CAT("core.parallel_partition.splitters", "core");
  std::int64_t p = 1;  // the first part this range may own
  while (p < nparts && comm.rank() != 0 &&
         cut_is_at_or_before(s_begin, nparts, p, total_weight))
    ++p;
  std::vector<std::int64_t> mine;
  // A crossing at i proves ownership: M(i)·nparts <= 2·S(end)·nparts.
  const graph::weight step = checked_mul(2, total_weight);
  graph::weight threshold = checked_mul(p, step);  // 2·p·total
  graph::weight running = s_begin;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const graph::weight mid2 = checked_mul(
        checked_add(checked_add(running, running), weights[i]), nparts);
    for (; p < nparts && mid2 >= threshold; ++p) {
      mine.push_back(begin + static_cast<std::int64_t>(i));
      threshold = checked_add(threshold, step);
    }
    running += weights[i];
  }
  // Owned parts with no crossing inside the range: their cut is end.
  for (; p < nparts && cut_is_at_or_before(running, nparts, p, total_weight);
       ++p)
    mine.push_back(begin + static_cast<std::int64_t>(weights.size()));

  std::vector<std::int64_t> raw = allgather_concat(comm, mine);
  SFP_ASSERT(raw.size() == static_cast<std::size_t>(nparts) - 1,
             "every part's cut must have exactly one owning rank");
  return raw;
}

}  // namespace

std::int64_t element_block_begin(std::int64_t num_elements, int num_ranks,
                                 int rank) {
  SFP_REQUIRE(num_ranks >= 1, "need at least one rank");
  SFP_REQUIRE(rank >= 0 && rank <= num_ranks, "rank out of range");
  SFP_REQUIRE(num_elements >= 0, "element count must be non-negative");
  const std::int64_t base = num_elements / num_ranks;
  const std::int64_t extra = num_elements % num_ranks;
  return base * rank + std::min<std::int64_t>(rank, extra);
}

std::vector<std::int64_t> repair_boundaries(std::span<const std::int64_t> raw,
                                            std::int64_t num_elements,
                                            int nparts) {
  SFP_REQUIRE(nparts >= 1, "need at least one part");
  SFP_REQUIRE(raw.size() == static_cast<std::size_t>(nparts) - 1,
              "one raw cut per interior part boundary");
  SFP_REQUIRE(nparts <= num_elements, "more parts than elements");
  std::vector<std::int64_t> b(raw.size());
  std::int64_t prev = 0;  // b_0: part 0 always starts the curve
  for (std::int64_t p = 1; p < nparts; ++p) {
    const std::int64_t forced = num_elements - nparts + p;
    const std::int64_t want =
        std::max(raw[static_cast<std::size_t>(p - 1)], prev + 1);
    prev = std::min(want, forced);
    b[static_cast<std::size_t>(p - 1)] = prev;
  }
  return b;
}

std::vector<std::int64_t> find_raw_splitters(
    peer_comm& comm, std::span<const std::int64_t> keys,
    std::span<const graph::weight> weights, std::int64_t num_elements,
    graph::weight total_weight, int nparts) {
  SFP_REQUIRE(keys.size() == weights.size(), "one weight per key");
  const std::int64_t begin = keys.empty() ? 0 : keys.front();
  SFP_REQUIRE(begin >= 0, "local keys must lie on the curve");
  for (std::size_t i = 0; i < keys.size(); ++i)
    SFP_REQUIRE(keys[i] == begin + static_cast<std::int64_t>(i) &&
                    keys[i] < num_elements,
                "local keys must be one contiguous range of positions");
  SFP_REQUIRE(nparts >= 1, "need at least one part");
  SFP_REQUIRE(total_weight >= 0, "total weight must be non-negative");
  graph::weight local_total = 0;
  for (const graph::weight w : weights) {
    SFP_REQUIRE(w >= 0, "weights must be non-negative");
    local_total = checked_add(local_total, w);
  }
  const graph::weight s_begin = exscan_sum(comm, local_total);
  return walk_raw_cuts(comm, begin, s_begin, weights, total_weight, nparts);
}

local_partition parallel_partition_rank(
    const mesh::cubed_sphere& mesh, const cube_curve_spec& spec, int nparts,
    std::span<const graph::weight> weights, peer_comm& comm,
    parallel_partition_stats* stats) {
  SFP_TRACE_SCOPE_CAT("core.parallel_partition", "core");
  {
    static obs::counter& calls = obs::registry::global().get_counter(
        "core.parallel_partition.rank_calls");
    calls.inc();
  }
  const auto k = static_cast<std::int64_t>(mesh.num_elements());
  SFP_REQUIRE(nparts >= 1, "need at least one part");
  SFP_REQUIRE(nparts <= k, "more parts than elements");
  SFP_REQUIRE(spec.face_curve.side() == mesh.ne(),
              "curve spec side must equal mesh Ne");
  SFP_REQUIRE(weights.empty() || weights.size() == static_cast<std::size_t>(k),
              "weights must be empty or one per element");

  local_partition out;
  out.begin = element_block_begin(k, comm.size(), comm.rank());
  out.end = element_block_begin(k, comm.size(), comm.rank() + 1);
  const auto m = static_cast<std::size_t>(out.end - out.begin);

  // Phase 1: the owned range's elements in curve order, straight from the
  // shared spec — no global traversal is ever materialized — and their
  // weights, read by element id.
  out.elements.resize(m);
  std::vector<graph::weight> range_weights(m, 1);
  graph::weight local_total = 0;
  {
    SFP_TRACE_SCOPE_CAT("core.parallel_partition.elements", "core");
    for (std::size_t i = 0; i < m; ++i) {
      const int e = element_at(spec, mesh,
                               out.begin + static_cast<std::int64_t>(i));
      out.elements[i] = e;
      if (!weights.empty())
        range_weights[i] = weights[static_cast<std::size_t>(e)];
      SFP_REQUIRE(range_weights[i] > 0, "vertex weights must be positive");
      local_total += range_weights[i];
    }
  }

  // Phase 2: every range's weight in one collective — the total, and the
  // prefix at this range's first position — then the cuts by one prefix
  // walk and the serial repair recurrence replayed on every rank.
  const std::int64_t mine[1] = {local_total};
  const std::vector<std::int64_t> range_totals = allgather_concat(comm, mine);
  const auto below = range_totals.begin() + comm.rank();
  const graph::weight s_begin =
      std::accumulate(range_totals.begin(), below, graph::weight{0});
  const graph::weight total =
      std::accumulate(below, range_totals.end(), s_begin);
  const std::vector<std::int64_t> raw =
      walk_raw_cuts(comm, out.begin, s_begin, range_weights, total, nparts);
  out.boundaries = repair_boundaries(raw, k, nparts);

  // Phase 3: label the owned range by position — one merge walk against
  // the shared boundaries. A position's label is the number of boundaries
  // at or below it.
  {
    SFP_TRACE_SCOPE_CAT("core.parallel_partition.label", "core");
    out.labels.resize(m);
    std::size_t part = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::int64_t pos = out.begin + static_cast<std::int64_t>(i);
      while (part < out.boundaries.size() && out.boundaries[part] <= pos)
        ++part;
      out.labels[i] = static_cast<graph::vid>(part);
    }
  }
  if (stats) stats->local_elements += static_cast<std::int64_t>(m);
  return out;
}

}  // namespace sfp::core
