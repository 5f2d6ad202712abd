// Unit tests for the distributed-scan primitive (core/dist_scan.hpp) and
// the splitter machinery of the parallel partitioner
// (core/parallel_partition.hpp): the integer-exact collectives, the block
// distribution, the repair recurrence, and the prefix-walk splitter search —
// including its edge cases: all-zero weights, one giant element, fewer
// elements than ranks (empty blocks), block sizes that don't divide,
// threshold ties that land several cuts on the same position, cuts on a
// range's first position, and ranges that own no cut.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/dist_scan.hpp"
#include "core/parallel_partition.hpp"
#include "core/sfc_partition.hpp"
#include "runtime/partition_fabric.hpp"
#include "runtime/world.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;
using sfp::core::allgather_concat;
using sfp::core::allreduce_sum;
using sfp::core::element_block_begin;
using sfp::core::exscan_sum;
using sfp::core::find_raw_splitters;
using sfp::core::repair_boundaries;
using sfp::core::solo_comm;

// ---------------------------------------------------------------------------
// Collectives.

TEST(SoloComm, CollectivesAreIdentities) {
  solo_comm solo;
  EXPECT_EQ(allreduce_sum(solo, 42), 42);
  std::vector<std::int64_t> v{7, -3, 0};
  allreduce_sum(solo, v);
  EXPECT_EQ(v, (std::vector<std::int64_t>{7, -3, 0}));
  EXPECT_EQ(exscan_sum(solo, 99), 0);
  EXPECT_EQ(allgather_concat(solo, v), v);
}

/// Run `body(comm)` once per rank over an in-process world with a reliable
/// channel per rank — the same stack the partition driver uses.
template <typename Body>
void run_peer_group(int nranks, Body&& body) {
  runtime::world w(nranks);
  w.run([&](runtime::transport& t) {
    runtime::reliable_channel channel(t);
    runtime::reliable_peer_comm peers(channel);
    body(peers);
    channel.flush();
    channel.fence();
  });
}

TEST(DistScan, AllreduceSumScalarIdenticalOnAllRanks) {
  constexpr int kRanks = 4;
  std::vector<std::int64_t> got(kRanks, 0);
  run_peer_group(kRanks, [&](core::peer_comm& comm) {
    const std::int64_t mine = (comm.rank() + 1) * (comm.rank() + 1);
    got[static_cast<std::size_t>(comm.rank())] = allreduce_sum(comm, mine);
  });
  for (const auto s : got) EXPECT_EQ(s, 1 + 4 + 9 + 16);
}

TEST(DistScan, AllreduceSumVectorElementwise) {
  constexpr int kRanks = 3;
  std::vector<std::vector<std::int64_t>> got(kRanks);
  run_peer_group(kRanks, [&](core::peer_comm& comm) {
    std::vector<std::int64_t> mine{comm.rank(), 10 * comm.rank(), -1};
    allreduce_sum(comm, mine);
    got[static_cast<std::size_t>(comm.rank())] = mine;
  });
  for (const auto& v : got) EXPECT_EQ(v, (std::vector<std::int64_t>{3, 30, -3}));
}

TEST(DistScan, ExscanIsExclusivePrefix) {
  constexpr int kRanks = 4;
  std::vector<std::int64_t> got(kRanks, -1);
  run_peer_group(kRanks, [&](core::peer_comm& comm) {
    got[static_cast<std::size_t>(comm.rank())] =
        exscan_sum(comm, comm.rank() + 1);
  });
  EXPECT_EQ(got, (std::vector<std::int64_t>{0, 1, 3, 6}));
}

TEST(DistScan, AllgatherConcatKeepsRankOrderAndEmptyContributions) {
  constexpr int kRanks = 4;
  std::vector<std::vector<std::int64_t>> got(kRanks);
  run_peer_group(kRanks, [&](core::peer_comm& comm) {
    std::vector<std::int64_t> mine;
    if (comm.rank() != 2)  // rank 2 contributes nothing
      for (int i = 0; i <= comm.rank(); ++i) mine.push_back(comm.rank() * 10 + i);
    got[static_cast<std::size_t>(comm.rank())] = allgather_concat(comm, mine);
  });
  const std::vector<std::int64_t> want{0, 10, 11, 30, 31, 32, 33};
  for (const auto& v : got) EXPECT_EQ(v, want);
}

// ---------------------------------------------------------------------------
// Block distribution.

TEST(BlockDistribution, BalancedWhenNotDivisible) {
  // K = 10 over 4 ranks: the first K mod P blocks are one larger.
  EXPECT_EQ(element_block_begin(10, 4, 0), 0);
  EXPECT_EQ(element_block_begin(10, 4, 1), 3);
  EXPECT_EQ(element_block_begin(10, 4, 2), 6);
  EXPECT_EQ(element_block_begin(10, 4, 3), 8);
  EXPECT_EQ(element_block_begin(10, 4, 4), 10);
}

TEST(BlockDistribution, EmptyBlocksWhenFewerElementsThanRanks) {
  // K = 2 over 5 ranks: ranks 2..4 own nothing.
  std::vector<std::int64_t> sizes;
  for (int r = 0; r < 5; ++r)
    sizes.push_back(element_block_begin(2, 5, r + 1) -
                    element_block_begin(2, 5, r));
  EXPECT_EQ(sizes, (std::vector<std::int64_t>{1, 1, 0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Repair recurrence.

TEST(RepairBoundaries, AllZeroRawCutsSpreadOnePartPerPosition) {
  const std::vector<std::int64_t> raw{0, 0, 0};
  EXPECT_EQ(repair_boundaries(raw, 10, 4),
            (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(RepairBoundaries, SentinelCutsAreForcedOntoTheTail) {
  const std::vector<std::int64_t> raw{10, 10, 10};
  EXPECT_EQ(repair_boundaries(raw, 10, 4),
            (std::vector<std::int64_t>{7, 8, 9}));
}

TEST(RepairBoundaries, WellSeparatedCutsPassThrough) {
  const std::vector<std::int64_t> raw{2, 5, 8};
  EXPECT_EQ(repair_boundaries(raw, 10, 4),
            (std::vector<std::int64_t>{2, 5, 8}));
}

// ---------------------------------------------------------------------------
// Splitter search. Ground truth: the serial midpoint rule evaluated
// directly — the first position whose M(i) = 2·S(i)+w(i) crosses each
// part's threshold — and, end-to-end, the serial slicer itself.

std::vector<std::int64_t> direct_raw_cuts(
    const std::vector<graph::weight>& w_by_pos, int nparts) {
  const auto n = static_cast<std::int64_t>(w_by_pos.size());
  graph::weight total = 0;
  for (const auto w : w_by_pos) total += w;
  std::vector<std::int64_t> raw(static_cast<std::size_t>(nparts) - 1, n);
  graph::weight s = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const graph::weight m = 2 * s + w_by_pos[static_cast<std::size_t>(i)];
    for (std::int64_t p = 1; p < nparts; ++p)
      if (raw[static_cast<std::size_t>(p - 1)] == n &&
          m * nparts >= 2 * p * total)
        raw[static_cast<std::size_t>(p - 1)] = i;
    s += w_by_pos[static_cast<std::size_t>(i)];
  }
  return raw;
}

/// Solo-run find_raw_splitters over weights laid out by curve position
/// (the one rank's keys are the whole curve).
std::vector<std::int64_t> solo_splitters(
    const std::vector<graph::weight>& w_by_pos, int nparts) {
  solo_comm solo;
  std::vector<std::int64_t> keys(w_by_pos.size());
  std::iota(keys.begin(), keys.end(), 0);
  graph::weight total = 0;
  for (const auto w : w_by_pos) total += w;
  return find_raw_splitters(solo, keys, w_by_pos,
                            static_cast<std::int64_t>(w_by_pos.size()), total,
                            nparts);
}

TEST(SplitterSearch, MatchesDirectMidpointRuleOnRandomWeights) {
  sfp::rng r(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::int64_t>(5 + r.below(40));
    std::vector<graph::weight> w(static_cast<std::size_t>(n));
    for (auto& x : w) x = 1 + static_cast<graph::weight>(r.below(50));
    for (const int nparts : {2, 3, 7}) {
      if (nparts > n) continue;
      EXPECT_EQ(solo_splitters(w, nparts), direct_raw_cuts(w, nparts))
          << "trial " << trial << " nparts " << nparts;
    }
  }
}

TEST(SplitterSearch, AllZeroWeightsCutEverySplitterAtZero) {
  // Zero total weight: every threshold is zero, so every part's cut is the
  // first position; repair then spreads one part per position.
  const std::vector<graph::weight> w(6, 0);
  const auto raw = solo_splitters(w, 4);
  EXPECT_EQ(raw, (std::vector<std::int64_t>{0, 0, 0}));
  EXPECT_EQ(repair_boundaries(raw, 6, 4), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(SplitterSearch, SingleGiantElementTiesAllCutsOnIt) {
  // One element holds nearly all the weight: the midpoint thresholds of
  // parts 1 and 2 fall inside its interval (tying their cuts on it), and
  // part 3's threshold lies beyond every midpoint (the sentinel cut).
  std::vector<graph::weight> w{1, 1, 1, 997};
  const auto raw = solo_splitters(w, 4);
  EXPECT_EQ(raw, direct_raw_cuts(w, 4));
  EXPECT_EQ(raw, (std::vector<std::int64_t>{3, 3, 4}));
  // Repair resolves the tie deterministically: strictly increasing
  // boundaries that keep every part non-empty.
  EXPECT_EQ(repair_boundaries(raw, 4, 4), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(SplitterSearch, GiantElementMidCurveMatchesSerialSlicer) {
  std::vector<graph::weight> w{2, 3, 1000, 1, 1, 2, 3, 1};
  const auto raw = solo_splitters(w, 5);
  EXPECT_EQ(raw, direct_raw_cuts(w, 5));
  // End-to-end against the serial slicer on the identity order.
  std::vector<int> order(w.size());
  std::iota(order.begin(), order.end(), 0);
  const auto serial = core::partition_from_order(order, w, 5);
  const auto b = repair_boundaries(raw, static_cast<std::int64_t>(w.size()), 5);
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto label = std::upper_bound(b.begin(), b.end(),
                                        static_cast<std::int64_t>(i)) -
                       b.begin();
    EXPECT_EQ(label, serial.part_of[i]) << "position " << i;
  }
}

TEST(SplitterSearch, DistributedMatchesSoloAcrossUnevenAndEmptyBlocks) {
  // The same search distributed over ranks must return the identical cuts —
  // with block sizes that don't divide (K = 11 over 3) and with empty
  // blocks (K = 5 over 8).
  sfp::rng r(7);
  for (const auto& [k, nranks] : {std::pair{11, 3}, std::pair{5, 8}}) {
    std::vector<graph::weight> w(static_cast<std::size_t>(k));
    for (auto& x : w) x = 1 + static_cast<graph::weight>(r.below(30));
    const int nparts = std::min(4, k);
    const auto want = solo_splitters(w, nparts);

    graph::weight total = 0;
    for (const auto x : w) total += x;
    std::vector<std::vector<std::int64_t>> got(
        static_cast<std::size_t>(nranks));
    run_peer_group(nranks, [&](core::peer_comm& comm) {
      const std::int64_t begin = element_block_begin(k, nranks, comm.rank());
      const std::int64_t end =
          element_block_begin(k, nranks, comm.rank() + 1);
      std::vector<std::int64_t> keys;
      std::vector<graph::weight> mine;
      for (std::int64_t i = begin; i < end; ++i) {
        keys.push_back(i);
        mine.push_back(w[static_cast<std::size_t>(i)]);
      }
      got[static_cast<std::size_t>(comm.rank())] =
          find_raw_splitters(comm, keys, mine, k, total, nparts);
    });
    for (const auto& raw : got) EXPECT_EQ(raw, want) << "K=" << k;
  }
}

/// Weights 1-9, times 100 with probability 1/16 (the dist-plan
/// benchmark's heavy tail).
std::vector<graph::weight> heavy_tail_weights(std::int64_t n,
                                              std::uint64_t seed) {
  sfp::rng r(seed);
  std::vector<graph::weight> w(static_cast<std::size_t>(n));
  for (auto& x : w) {
    x = 1 + static_cast<graph::weight>(r.below(9));
    if (r.below(16) == 0) x *= 100;
  }
  return w;
}

TEST(SplitterSearch, ManyPartsDefaultOptionsMatchDirectMidpointRule) {
  // The paper's regime: a few elements per part, so every rank's range
  // holds hundreds of cuts and the walk crosses several thresholds at some
  // positions. Heavy-tail weights, solo and over 3 ranks.
  constexpr std::int64_t n = 4000;
  const std::vector<graph::weight> w = heavy_tail_weights(n, 20261017);
  const graph::weight total = std::accumulate(w.begin(), w.end(),
                                              graph::weight{0});
  std::vector<std::int64_t> keys(w.size());
  std::iota(keys.begin(), keys.end(), 0);
  for (const int nparts : {static_cast<int>(n / 8), static_cast<int>(n / 3)}) {
    const auto want = direct_raw_cuts(w, nparts);

    solo_comm solo;
    EXPECT_EQ(find_raw_splitters(solo, keys, w, n, total, nparts), want)
        << "solo nparts " << nparts;

    constexpr int kRanks = 3;
    std::vector<std::vector<std::int64_t>> got(kRanks);
    run_peer_group(kRanks, [&](core::peer_comm& comm) {
      const std::int64_t begin = element_block_begin(n, kRanks, comm.rank());
      const std::int64_t end = element_block_begin(n, kRanks, comm.rank() + 1);
      const auto b = static_cast<std::size_t>(begin);
      const auto e = static_cast<std::size_t>(end);
      got[static_cast<std::size_t>(comm.rank())] = find_raw_splitters(
          comm, std::span(keys).subspan(b, e - b),
          std::span(w).subspan(b, e - b), n, total, nparts);
    });
    for (const auto& raw : got) EXPECT_EQ(raw, want) << "nparts " << nparts;
  }
}

/// find_raw_splitters over ranks whose ranges start at `starts` (rank r
/// owns [starts[r], starts[r+1]), the last one ends at the curve's end).
/// Every rank must return the same cuts; returns rank 0's.
std::vector<std::int64_t> ranged_splitters(
    const std::vector<graph::weight>& w_by_pos, int nparts,
    const std::vector<std::int64_t>& starts) {
  const auto n = static_cast<std::int64_t>(w_by_pos.size());
  const graph::weight total = std::accumulate(
      w_by_pos.begin(), w_by_pos.end(), graph::weight{0});
  const auto nranks = static_cast<int>(starts.size());
  std::vector<std::vector<std::int64_t>> got(starts.size());
  run_peer_group(nranks, [&](core::peer_comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const std::int64_t begin = starts[r];
    const std::int64_t end = r + 1 < starts.size() ? starts[r + 1] : n;
    std::vector<std::int64_t> keys;
    std::vector<graph::weight> mine;
    for (std::int64_t i = begin; i < end; ++i) {
      keys.push_back(i);
      mine.push_back(w_by_pos[static_cast<std::size_t>(i)]);
    }
    got[r] = find_raw_splitters(comm, keys, mine, n, total, nparts);
  });
  for (const auto& raw : got) EXPECT_EQ(raw, got[0]);
  return got[0];
}

TEST(SplitterSearch, CutOnARangesFirstPositionIsFoundOnEitherSide) {
  // Unit weights: S(4)·2 = 8 = 1·T, so the dichotomy puts the cut at or
  // before position 4 — rank 0 owns it, finds no crossing in [0, 4) and
  // reports its end, which is rank 1's first position.
  const std::vector<graph::weight> unit(8, 1);
  EXPECT_EQ(direct_raw_cuts(unit, 2), (std::vector<std::int64_t>{4}));
  EXPECT_EQ(ranged_splitters(unit, 2, {0, 4}), direct_raw_cuts(unit, 2));
  // A heavier first element: S(4)·2 = 8 < 9 = 1·T, so rank 1 owns the
  // cut and its walk crosses the threshold at its very first position.
  const std::vector<graph::weight> heavy{1, 1, 1, 1, 4, 1};
  EXPECT_EQ(direct_raw_cuts(heavy, 2), (std::vector<std::int64_t>{4}));
  EXPECT_EQ(ranged_splitters(heavy, 2, {0, 4}), direct_raw_cuts(heavy, 2));
  EXPECT_EQ(ranged_splitters(heavy, 2, {0, 4, 5}), direct_raw_cuts(heavy, 2));
}

TEST(SplitterSearch, GiantWeightAtARangeBoundaryTiesItsCuts) {
  // One element holds most of the weight: two thresholds fall below its
  // midpoint and tie their cuts on it, and the other three tie on the
  // element after it. Whichever range the giant closes, opens or fills,
  // the rank that holds it owns all five cuts — and reports the last
  // three as its end when the element after lies in the next range.
  const std::vector<graph::weight> w{2, 1, 3, 1000, 1, 2, 1, 1, 3};
  const std::vector<std::int64_t> want = direct_raw_cuts(w, 6);
  EXPECT_EQ(want, (std::vector<std::int64_t>{3, 3, 4, 4, 4}));
  EXPECT_EQ(ranged_splitters(w, 6, {0, 4, 6}), want);  // giant ends rank 0
  EXPECT_EQ(ranged_splitters(w, 6, {0, 3, 6}), want);  // giant starts rank 1
  EXPECT_EQ(ranged_splitters(w, 6, {0, 3, 4}), want);  // giant alone
}

TEST(SplitterSearch, RangesThatOwnNoCutStillTakePart) {
  // Two parts over unit weights: the one cut lies in rank 1's range, so
  // rank 0, rank 2 and the empty rank 3 contribute nothing to the
  // allgather. Seven parts on a curve with one heavy element: the rank
  // holding it alone owns all six cuts, and the light ranks around it,
  // the empty one included, own none.
  const std::vector<graph::weight> unit(12, 1);
  EXPECT_EQ(ranged_splitters(unit, 2, {0, 4, 8, 12}), direct_raw_cuts(unit, 2));
  std::vector<graph::weight> w(12, 1);
  w[6] = 500;
  EXPECT_EQ(ranged_splitters(w, 7, {0, 3, 6, 7, 7, 10}),
            direct_raw_cuts(w, 7));
}

TEST(SplitterSearch, RejectsKeysThatAreNotOneContiguousRange) {
  solo_comm solo;
  const std::vector<graph::weight> w{1, 1, 1};
  const std::vector<std::int64_t> gap{0, 2, 3};
  EXPECT_THROW((void)find_raw_splitters(solo, gap, w, 4, 3, 2),
               contract_error);
  const std::vector<std::int64_t> past{2, 3, 4};
  EXPECT_THROW((void)find_raw_splitters(solo, past, w, 4, 3, 2),
               contract_error);
}

}  // namespace
