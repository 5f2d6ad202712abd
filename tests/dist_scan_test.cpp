// Unit tests for the distributed-scan primitive (core/dist_scan.hpp) and
// the splitter machinery of the parallel partitioner
// (core/parallel_partition.hpp): the integer-exact collectives, the block
// distribution, the repair recurrence, and the histogram splitter search —
// including its edge cases: all-zero weights, one giant element, fewer
// elements than ranks (empty blocks), block sizes that don't divide, and
// threshold ties that land several cuts on the same position.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
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
    runtime::reliable_peer_comm peers(channel, t.rank(), t.size());
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
/// (keys are the identity permutation), with a tiny window to force
/// several refinement rounds.
std::vector<std::int64_t> solo_splitters(
    const std::vector<graph::weight>& w_by_pos, int nparts) {
  solo_comm solo;
  std::vector<std::int64_t> keys(w_by_pos.size());
  std::iota(keys.begin(), keys.end(), 0);
  graph::weight total = 0;
  for (const auto w : w_by_pos) total += w;
  core::parallel_partition_options opts;
  opts.histogram_fanout = 2;
  opts.window_elements = 2;
  return find_raw_splitters(solo, keys, w_by_pos,
                            static_cast<std::int64_t>(w_by_pos.size()), total,
                            nparts, opts);
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
      core::parallel_partition_options opts;
      opts.histogram_fanout = 2;
      opts.window_elements = 2;
      got[static_cast<std::size_t>(comm.rank())] =
          find_raw_splitters(comm, keys, mine, k, total, nparts, opts);
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
  // The paper's regime: a few elements per part, so hundreds of splitters
  // share one bracket in the first rounds and every round's probe list is
  // walked by many brackets at once. Default options, heavy-tail weights,
  // solo and over 3 ranks.
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

/// The refinement by its plain definition, over exact prefix sums: every
/// still-wide bracket probes, and every probe is tested against every
/// bracket. Returns the search's cost record (rounds, probes, records in
/// the merged exact-pass windows).
core::parallel_partition_stats naive_refinement_stats(
    const std::vector<graph::weight>& w_by_pos, int nparts,
    const core::parallel_partition_options& opts) {
  const auto n = static_cast<std::int64_t>(w_by_pos.size());
  std::vector<graph::weight> s(w_by_pos.size() + 1, 0);
  for (std::size_t i = 0; i < w_by_pos.size(); ++i)
    s[i + 1] = s[i] + w_by_pos[i];
  const graph::weight total = s.back();
  std::vector<std::pair<std::int64_t, std::int64_t>> br(
      static_cast<std::size_t>(nparts) - 1, {0, n});
  const auto wide = [&](std::int64_t lo, std::int64_t hi) {
    return hi - lo > opts.window_elements;
  };
  core::parallel_partition_stats stats;
  for (;;) {
    std::vector<std::int64_t> probes;
    for (const auto& [lo, hi] : br) {
      if (!wide(lo, hi)) continue;
      for (int j = 1; j < opts.histogram_fanout; ++j) {
        const std::int64_t x = lo + (hi - lo) * j / opts.histogram_fanout;
        if (x > lo && x < hi) probes.push_back(x);
      }
    }
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    if (probes.empty()) break;
    ++stats.rounds;
    stats.probes_evaluated += static_cast<std::int64_t>(probes.size());
    for (std::size_t pi = 0; pi < br.size(); ++pi) {
      auto& [lo, hi] = br[pi];
      if (!wide(lo, hi)) continue;
      for (const std::int64_t x : probes) {
        if (x <= lo || x >= hi) continue;
        if (s[static_cast<std::size_t>(x)] * nparts >=
            static_cast<std::int64_t>(pi + 1) * total)
          hi = x;
        else
          lo = x;
      }
    }
  }
  std::vector<bool> in_window(static_cast<std::size_t>(n), false);
  for (const auto& [lo, hi] : br)
    for (std::int64_t x = lo; x <= std::min(hi, n - 1); ++x)
      in_window[static_cast<std::size_t>(x)] = true;
  stats.window_records =
      std::count(in_window.begin(), in_window.end(), true);
  return stats;
}

TEST(SplitterSearch, ManyPartsSearchTrajectoryMatchesNaiveRefinement) {
  // The search's cost record — rounds, probes evaluated, exact-pass window
  // records — must be the plain definition's, so skipping repeated
  // brackets and walking only a bracket's own probes save time without
  // changing a single probe.
  constexpr std::int64_t n = 4000;
  const std::vector<graph::weight> w = heavy_tail_weights(n, 20261017);
  const graph::weight total = std::accumulate(w.begin(), w.end(),
                                              graph::weight{0});
  std::vector<std::int64_t> keys(w.size());
  std::iota(keys.begin(), keys.end(), 0);
  core::parallel_partition_options small;
  small.histogram_fanout = 4;
  small.window_elements = 8;
  for (const auto& opts : {core::parallel_partition_options{}, small}) {
    for (const int nparts : {7, static_cast<int>(n / 8),
                             static_cast<int>(n / 3)}) {
      const auto want = naive_refinement_stats(w, nparts, opts);
      solo_comm solo;
      core::parallel_partition_stats got;
      (void)find_raw_splitters(solo, keys, w, n, total, nparts, opts, &got);
      const std::string what = "fanout " +
                               std::to_string(opts.histogram_fanout) +
                               " nparts " + std::to_string(nparts);
      EXPECT_EQ(got.rounds, want.rounds) << what;
      EXPECT_EQ(got.probes_evaluated, want.probes_evaluated) << what;
      EXPECT_EQ(got.window_records, want.window_records) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Survivor regroup over injected rank kills: the regroup_comm wrapper must
// shrink the group around the corpses and let the survivors re-execute the
// collective deterministically — or, below quorum, abort cleanly instead of
// hanging. Every test here doubles as a hang check: the channel's receive
// timeout bounds any stuck rank, so mere completion is part of the contract.

/// Per-rank outcome of one faulted regroup run.
struct regroup_run {
  bool completed = false;  ///< body finished under some surviving group
  bool aborted = false;    ///< quorum_lost (evicted or below min_members)
  bool dead = false;       ///< the injected kill fired on this rank
  std::uint64_t epoch = 0;
  std::vector<int> members;
  std::vector<std::int64_t> value;  ///< whatever the body computed
};

/// Reliable tuning matched to kill tests: fast retransmit exhaustion makes
/// corpse detection definite within ~a quarter second, and the short base
/// recv timeout keeps the silence-patience budget in wall-clock bounds.
runtime::reliable_options kill_test_reliable() {
  runtime::reliable_options r;
  r.retransmit_timeout = std::chrono::microseconds(5000);
  r.max_backoff = std::chrono::microseconds(20000);
  r.max_retransmits = 12;
  r.recv_timeout = std::chrono::milliseconds(100);
  return r;
}

/// Run `body(group)` per rank with kills injected, re-executing from
/// scratch on every group reconfiguration — the same retry discipline the
/// partition fabric uses, minus the escalation ladder.
template <typename Body>
std::vector<regroup_run> run_regroup_group(int nranks,
                                           runtime::fault_plan faults,
                                           core::regroup_options ropts,
                                           Body&& body) {
  std::vector<regroup_run> out(static_cast<std::size_t>(nranks));
  runtime::fabric_options fopts;
  fopts.faults = std::move(faults);
  runtime::world w(nranks, fopts);
  w.run([&](runtime::transport& t) {
    regroup_run& r = out[static_cast<std::size_t>(t.rank())];
    runtime::reliable_channel channel(t, kill_test_reliable());
    try {
      runtime::reliable_peer_comm peers(channel, t.rank(), t.size());
      core::regroup_comm group(peers, ropts);
      for (int attempt = 0; attempt < nranks; ++attempt) {
        try {
          r.value = body(group);
          group.barrier();
          r.completed = true;
          break;
        } catch (const core::group_reconfigured&) {
          continue;  // re-execute over the shrunken group
        }
      }
      r.epoch = group.view().epoch;
      r.members = group.view().members;
      // Tail flush: releases to ranks that already left may never be
      // acked; scrub those instead of escalating — deposits made, we are
      // only leaving.
      for (;;) {
        try {
          channel.flush();
          break;
        } catch (const runtime::peer_unreachable_error& e) {
          channel.forget_peer(e.peer());
        }
      }
    } catch (const core::quorum_lost&) {
      r.aborted = true;
      channel.abandon();
    } catch (const runtime::rank_killed&) {
      r.dead = true;
      channel.abandon();
    }
  });
  return out;
}

core::regroup_options quorum(int min_members) {
  core::regroup_options r;
  r.min_members = min_members;
  return r;
}

runtime::fault_plan kills(
    std::initializer_list<runtime::fault_plan::kill_spec> specs) {
  runtime::fault_plan plan;
  plan.kills.assign(specs.begin(), specs.end());
  return plan;
}

TEST(Regroup, RankZeroDeathElectsLowestSurvivorAsRoot) {
  // Rank 0 dies on its first send — mid-collective, while every leaf is
  // waiting on the root. Succession must hand the root role to rank 1
  // (lowest survivor) and the re-executed allreduce must cover exactly the
  // survivors' contributions.
  const auto runs =
      run_regroup_group(4, kills({{0, 1}}), quorum(2), [](core::regroup_comm& g) {
        const int world = g.view().members[static_cast<std::size_t>(g.rank())];
        return std::vector<std::int64_t>{
            allreduce_sum(g, static_cast<std::int64_t>(world + 1))};
      });
  EXPECT_TRUE(runs[0].dead);
  for (int r = 1; r < 4; ++r) {
    ASSERT_TRUE(runs[r].completed) << "rank " << r;
    EXPECT_EQ(runs[r].epoch, 1u) << "rank " << r;
    EXPECT_EQ(runs[r].members, (std::vector<int>{1, 2, 3})) << "rank " << r;
    // Sum over survivors {1,2,3}: 2 + 3 + 4.
    EXPECT_EQ(runs[r].value, (std::vector<std::int64_t>{9})) << "rank " << r;
  }
}

TEST(Regroup, TwoDeathsInOneRunStillReachQuorum) {
  // Two corpses, one run: ranks 0 and 2 die at different ops. Whether the
  // agreement settles in one round or two, the surviving pair {1, 3} is
  // exactly at quorum and must finish with a consistent result.
  const auto runs = run_regroup_group(
      4, kills({{0, 1}, {2, 2}}), quorum(2), [](core::regroup_comm& g) {
        const int world = g.view().members[static_cast<std::size_t>(g.rank())];
        return std::vector<std::int64_t>{
            allreduce_sum(g, static_cast<std::int64_t>(world + 1))};
      });
  EXPECT_TRUE(runs[0].dead);
  EXPECT_TRUE(runs[2].dead);
  for (const int r : {1, 3}) {
    ASSERT_TRUE(runs[r].completed) << "rank " << r;
    EXPECT_GE(runs[r].epoch, 1u) << "rank " << r;
    EXPECT_EQ(runs[r].members, (std::vector<int>{1, 3})) << "rank " << r;
    EXPECT_EQ(runs[r].value, (std::vector<std::int64_t>{6})) << "rank " << r;
  }
}

TEST(Regroup, DeathBelowQuorumAbortsCleanlyWithoutHanging) {
  // min_members = 3, two deaths leave {1, 3}: every survivor must unwind
  // via quorum_lost — promptly, not by timing out the world — and no rank
  // may complete under an undersized group.
  const auto runs = run_regroup_group(
      4, kills({{0, 1}, {2, 2}}), quorum(3), [](core::regroup_comm& g) {
        const int world = g.view().members[static_cast<std::size_t>(g.rank())];
        return std::vector<std::int64_t>{
            allreduce_sum(g, static_cast<std::int64_t>(world + 1))};
      });
  EXPECT_TRUE(runs[0].dead);
  EXPECT_TRUE(runs[2].dead);
  for (const int r : {1, 3}) {
    EXPECT_TRUE(runs[r].aborted) << "rank " << r;
    EXPECT_FALSE(runs[r].completed) << "rank " << r;
  }
}

TEST(Regroup, KillDuringExscanRecoversWithConsistentOffsets) {
  // Rank 2 dies on its first send — its exscan contribution (or its ack),
  // so the fan-in at the root is what detects the corpse. Survivors
  // re-execute: offsets must be the exclusive prefix over dense order of
  // the surviving members only.
  const auto runs = run_regroup_group(
      4, kills({{2, 1}}), quorum(2), [](core::regroup_comm& g) {
        const int world = g.view().members[static_cast<std::size_t>(g.rank())];
        return std::vector<std::int64_t>{
            exscan_sum(g, static_cast<std::int64_t>(world + 1))};
      });
  EXPECT_TRUE(runs[2].dead);
  // Survivors {0, 1, 3} contribute {1, 2, 4}; exclusive prefix: 0, 1, 3.
  const std::int64_t want[4] = {0, 1, -1, 3};
  for (const int r : {0, 1, 3}) {
    ASSERT_TRUE(runs[r].completed) << "rank " << r;
    EXPECT_EQ(runs[r].members, (std::vector<int>{0, 1, 3})) << "rank " << r;
    EXPECT_EQ(runs[r].value, (std::vector<std::int64_t>{want[r]}))
        << "rank " << r;
  }
}

TEST(Regroup, KillDuringAllgatherRecoversWithSurvivorConcat) {
  // The body runs a fault-free exscan first, then the allgather; rank 2's
  // kill is pinned past its exscan traffic so death lands in the gather
  // phase. The re-executed run must concatenate exactly the survivors'
  // words in dense rank order.
  const auto runs = run_regroup_group(
      4, kills({{2, 4}}), quorum(2), [](core::regroup_comm& g) {
        const int world = g.view().members[static_cast<std::size_t>(g.rank())];
        (void)exscan_sum(g, static_cast<std::int64_t>(world + 1));
        const std::int64_t mine[1] = {10 * (world + 1)};
        return allgather_concat(g, mine);
      });
  EXPECT_TRUE(runs[2].dead);
  for (const int r : {0, 1, 3}) {
    ASSERT_TRUE(runs[r].completed) << "rank " << r;
    EXPECT_EQ(runs[r].epoch, 1u) << "rank " << r;
    EXPECT_EQ(runs[r].value, (std::vector<std::int64_t>{10, 20, 40}))
        << "rank " << r;
  }
}

}  // namespace
