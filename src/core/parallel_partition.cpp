#include "core/parallel_partition.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "util/contract.hpp"
#include "util/safe_int.hpp"

namespace sfp::core {

namespace {

/// Local exclusive-prefix view of this rank's (key, weight) pairs, sorted
/// by key: weight_below(x) answers "how much of my weight sits at keys
/// < x" in O(log) — the quantity the histogram probes sum across ranks.
/// Keys and weights are views of the caller's arrays; only the prefix is
/// owned.
struct sorted_block {
  std::span<const std::int64_t> keys;       ///< ascending
  std::span<const graph::weight> weights;   ///< matching keys
  std::vector<graph::weight> prefix;        ///< size keys.size()+1, prefix[i] = Σ weights[0..i)

  graph::weight weight_below(std::int64_t x) const {
    const auto it = std::lower_bound(keys.begin(), keys.end(), x);
    return prefix[static_cast<std::size_t>(it - keys.begin())];
  }
};

/// One splitter's bracket during refinement: raw cut r_p is known to lie
/// in [lo, hi], with s_at_lo = S(lo) already established (S(0) = 0).
struct bracket {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  graph::weight s_at_lo = 0;
};

/// The integer-exact dichotomy that brackets the serial midpoint rule's
/// cut — the first position i with M(i)·nparts >= 2·p·total, where
/// M(i) = 2·S(i)+w(i) — using only prefix sums at probe positions:
///
///   S(x)·nparts >= p·total  =>  M(x) >= 2·S(x) puts x itself at or above
///                               the threshold, so the cut is <= x;
///   S(x)·nparts <  p·total  =>  every i < x has M(i) = S(i)+S(i+1)
///                               <= 2·S(x), strictly below, so the cut
///                               is >= x.
///
/// Exactly one side holds at every probe, so each probe narrows its
/// bracket; both directions are valid for any non-negative weights (the
/// individual w(x) stays unknown until the exact pass).
bool cut_is_at_or_before(graph::weight s_at_probe, int nparts,
                         std::int64_t p, graph::weight total) {
  return checked_mul(s_at_probe, nparts) >= checked_mul(p, total);
}

/// Bits per LSD radix digit: 2^11 counters stay in L1, and keys of up to
/// 11 bits (K < 2048) sort in one pass, of up to 22 bits in two.
constexpr int kRadixBits = 11;

/// The local index packed in the low half of a phase-1 word.
std::size_t local_index(std::uint64_t word) {
  return static_cast<std::size_t>(word & 0xffffffffu);
}

/// Sort words `(key << 32) | local index` by key with an LSD radix sort
/// over the `key_bits` low bits of the key: O(n) per pass, and keys are
/// distinct, so the order is total.
void radix_sort_by_key(std::vector<std::uint64_t>& words, int key_bits) {
  constexpr std::size_t digits = std::size_t{1} << kRadixBits;
  std::vector<std::uint64_t> scratch(words.size());
  std::vector<std::size_t> start(digits);
  for (int shift = 32; shift < 32 + key_bits; shift += kRadixBits) {
    const auto digit = [shift](std::uint64_t w) {
      return static_cast<std::size_t>(w >> shift) & (digits - 1);
    };
    std::fill(start.begin(), start.end(), 0);
    for (const std::uint64_t w : words) ++start[digit(w)];
    std::size_t below = 0;
    for (std::size_t& s : start) {
      const std::size_t count = s;
      s = below;
      below += count;
    }
    for (const std::uint64_t w : words) scratch[start[digit(w)]++] = w;
    words.swap(scratch);
  }
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
    peer_comm& comm, std::span<const std::int64_t> sorted_keys,
    std::span<const graph::weight> sorted_weights, std::int64_t num_elements,
    graph::weight total_weight, int nparts,
    const parallel_partition_options& opts,
    parallel_partition_stats* stats) {
  SFP_TRACE_SCOPE_CAT("core.parallel_partition.splitters", "core");
  SFP_REQUIRE(nparts >= 1, "need at least one part");
  SFP_REQUIRE(sorted_keys.size() == sorted_weights.size(),
              "one weight per key");
  SFP_REQUIRE(opts.histogram_fanout >= 2, "histogram fanout must be >= 2");
  SFP_REQUIRE(opts.window_elements >= 1, "window must hold >= 1 element");
  SFP_REQUIRE(total_weight >= 0, "total weight must be non-negative");

  const std::int64_t n = num_elements;
  std::vector<std::int64_t> result(static_cast<std::size_t>(nparts) - 1, n);
  if (nparts == 1) return result;

  sorted_block block{sorted_keys, sorted_weights, {}};
  block.prefix.resize(block.keys.size() + 1);
  block.prefix[0] = 0;
  for (std::size_t i = 0; i < block.keys.size(); ++i) {
    SFP_REQUIRE(i == 0 || block.keys[i] > block.keys[i - 1],
                "local keys must be sorted and distinct");
    block.prefix[i + 1] = block.prefix[i] + block.weights[i];
  }

  // Every rank holds the same bracket state and narrows it from the same
  // globally-reduced prefix sums, so the refinement runs in lockstep with
  // no coordination beyond the reductions themselves.
  std::vector<bracket> brackets(static_cast<std::size_t>(nparts) - 1);
  for (auto& br : brackets) br.hi = n;  // n = "no qualifying position"

  const auto width_of = [](const bracket& br) { return br.hi - br.lo; };
  const std::int64_t window = opts.window_elements;
  int rounds = 0;
  std::int64_t probes_total = 0;

  for (;;) {
    // Collect this round's probe positions over all still-wide brackets.
    // Probes depend only on (lo, hi), and neighbouring splitters often
    // share a bracket (in the first rounds hundreds do), so a bracket equal
    // to the last one probed adds nothing.
    std::vector<std::int64_t> probes;
    const bracket* last_probed = nullptr;
    for (const bracket& br : brackets) {
      if (width_of(br) <= window) continue;
      if (last_probed && last_probed->lo == br.lo && last_probed->hi == br.hi)
        continue;
      last_probed = &br;
      const std::int64_t width = width_of(br);
      for (int j = 1; j < opts.histogram_fanout; ++j) {
        const std::int64_t x =
            br.lo + (width * j) / opts.histogram_fanout;
        if (x > br.lo && x < br.hi) probes.push_back(x);
      }
    }
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    if (probes.empty()) break;

    // One vector reduction gives S at every probe on every rank.
    std::vector<std::int64_t> sums(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i)
      sums[i] = block.weight_below(probes[i]);
    allreduce_sum(comm, sums);
    ++rounds;
    probes_total += static_cast<std::int64_t>(probes.size());

    // Each bracket walks only the probes strictly inside it, in ascending
    // order: a probe below the threshold raises lo (so the next probe is
    // still inside), and the first one at or above it sets hi, past which
    // every later probe lies. Two brackets are always identical or have
    // disjoint interiors, so the probes inside one are its own fanout − 1:
    // O(brackets · (fanout + log probes)) per round.
    for (std::size_t pi = 0; pi < brackets.size(); ++pi) {
      bracket& br = brackets[pi];
      if (width_of(br) <= window) continue;
      const std::int64_t p = static_cast<std::int64_t>(pi) + 1;
      for (auto i = static_cast<std::size_t>(
               std::upper_bound(probes.begin(), probes.end(), br.lo) -
               probes.begin());
           i < probes.size() && probes[i] < br.hi; ++i) {
        if (cut_is_at_or_before(sums[i], nparts, p, total_weight)) {
          br.hi = probes[i];
          break;
        }
        br.lo = probes[i];
        br.s_at_lo = sums[i];
      }
    }
    SFP_ASSERT(rounds <= 64, "histogram refinement failed to converge");
  }

  // Exact pass: the surviving candidate positions are few, so exchange the
  // actual (key, weight) records inside every bracket and replay the
  // serial threshold scan on them. Brackets can overlap, so gather over
  // the merged ranges once.
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  for (const bracket& br : brackets) {
    const std::int64_t first = br.lo;
    const std::int64_t last = std::min(br.hi, n - 1);  // n is a sentinel
    if (first <= last) ranges.emplace_back(first, last + 1);
  }
  std::sort(ranges.begin(), ranges.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& r : ranges) {
    if (!merged.empty() && r.first <= merged.back().second)
      merged.back().second = std::max(merged.back().second, r.second);
    else
      merged.push_back(r);
  }

  std::vector<std::int64_t> mine;  // flattened (key, weight) records
  for (const auto& [first, last] : merged) {
    const auto begin_it =
        std::lower_bound(block.keys.begin(), block.keys.end(), first);
    const auto end_it =
        std::lower_bound(block.keys.begin(), block.keys.end(), last);
    for (auto it = begin_it; it != end_it; ++it) {
      const auto i = static_cast<std::size_t>(it - block.keys.begin());
      mine.push_back(block.keys[i]);
      mine.push_back(block.weights[i]);
    }
  }
  std::vector<std::int64_t> records = allgather_concat(comm, mine);
  SFP_ASSERT(records.size() % 2 == 0, "window records must be pairs");
  std::vector<std::pair<std::int64_t, graph::weight>> window_elems;
  window_elems.reserve(records.size() / 2);
  for (std::size_t i = 0; i < records.size(); i += 2)
    window_elems.emplace_back(records[i], records[i + 1]);
  std::sort(window_elems.begin(), window_elems.end());

  for (std::size_t pi = 0; pi < brackets.size(); ++pi) {
    const bracket& br = brackets[pi];
    const std::int64_t p = static_cast<std::int64_t>(pi) + 1;
    std::int64_t cut = n;
    graph::weight running = br.s_at_lo;
    auto it = std::lower_bound(
        window_elems.begin(), window_elems.end(),
        std::make_pair(br.lo, std::numeric_limits<graph::weight>::min()));
    for (std::int64_t pos = br.lo; pos <= std::min(br.hi, n - 1);
         ++pos, ++it) {
      SFP_ASSERT(it != window_elems.end() && it->first == pos,
                 "window must cover every position in the bracket");
      const graph::weight w = it->second;
      const graph::weight mid2 = checked_add(checked_add(running, running), w);
      if (checked_mul(mid2, nparts) >= checked_mul(2 * p, total_weight)) {
        cut = pos;
        break;
      }
      running += w;
    }
    result[pi] = cut;
  }

  if (stats) {
    stats->rounds += rounds;
    stats->probes_evaluated += probes_total;
    stats->window_records += static_cast<std::int64_t>(window_elems.size());
  }
  {
    static obs::counter& probe_counter = obs::registry::global().get_counter(
        "core.parallel_partition.probes");
    probe_counter.add(probes_total);
  }
  return result;
}

local_partition parallel_partition_rank(
    const mesh::cubed_sphere& mesh, const cube_curve_spec& spec, int nparts,
    std::span<const graph::weight> local_weights, peer_comm& comm,
    const parallel_partition_options& opts,
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

  local_partition out;
  out.begin = element_block_begin(k, comm.size(), comm.rank());
  out.end = element_block_begin(k, comm.size(), comm.rank() + 1);
  const auto m = static_cast<std::size_t>(out.end - out.begin);
  SFP_REQUIRE(local_weights.empty() || local_weights.size() == m,
              "weights must be empty or one per owned element");

  // Phase 1: local SFC keys, straight from the shared spec — no global
  // traversal is ever materialized. Each key (< K < 2^31) is packed above
  // its local index, so sorting the words by key also carries the
  // permutation back to element order.
  std::vector<std::uint64_t> by_key(m);
  {
    SFP_TRACE_SCOPE_CAT("core.parallel_partition.keys", "core");
    for (std::size_t i = 0; i < m; ++i) {
      const std::int64_t key = curve_position_of(
          spec, mesh, static_cast<int>(out.begin) + static_cast<int>(i));
      SFP_ASSERT(key >= 0 && key < k, "SFC key must be a curve position");
      by_key[i] = (static_cast<std::uint64_t>(key) << 32) | i;
    }
  }

  // Phase 2: sort the block by key and reduce the weight totals.
  radix_sort_by_key(
      by_key, static_cast<int>(std::bit_width(static_cast<std::uint64_t>(k))));
  std::vector<std::int64_t> sorted_keys(m);
  std::vector<graph::weight> sorted_weights(m);
  graph::weight local_total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const graph::weight w =
        local_weights.empty() ? 1 : local_weights[local_index(by_key[i])];
    SFP_REQUIRE(w > 0, "vertex weights must be positive");
    sorted_keys[i] = static_cast<std::int64_t>(by_key[i] >> 32);
    sorted_weights[i] = w;
    local_total += w;
  }
  const graph::weight total = allreduce_sum(comm, local_total);

  // Phase 3: weighted split points by distributed histogram refinement,
  // then the serial repair recurrence replayed on every rank.
  const std::vector<std::int64_t> raw =
      find_raw_splitters(comm, sorted_keys, sorted_weights, k, total, nparts,
                         opts, stats);
  out.boundaries = repair_boundaries(raw, k, nparts);

  // Phase 4: label the owned block against the shared boundaries — one
  // merge walk of the sorted keys, scattered back through the permutation.
  // An element's label is the number of boundaries at or below its key.
  {
    SFP_TRACE_SCOPE_CAT("core.parallel_partition.label", "core");
    out.labels.resize(m);
    std::size_t part = 0;
    for (std::size_t i = 0; i < m; ++i) {
      while (part < out.boundaries.size() &&
             out.boundaries[part] <= sorted_keys[i])
        ++part;
      out.labels[local_index(by_key[i])] = static_cast<graph::vid>(part);
    }
  }
  if (stats) stats->local_elements += static_cast<std::int64_t>(m);
  return out;
}

}  // namespace sfp::core
