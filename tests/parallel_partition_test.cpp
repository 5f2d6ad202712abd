// The serial-parity wall for the distributed SFC partitioner: the parallel
// slicer (core/parallel_partition.hpp over runtime/partition_fabric.hpp)
// must produce *bit-identical* plans to the serial core::sfc_partition for
// every (Ne, schedule, Nproc, weights) combination — element for element —
// across rank counts and through message chaos. Every parallel plan is also piped through core::validate_plan, so
// the structural invariants (ownership, contiguity, balance) are audited
// independently of the serial comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/parallel_partition.hpp"
#include "core/sfc_partition.hpp"
#include "core/validate.hpp"
#include "mesh/cubed_sphere.hpp"
#include "obs/metrics.hpp"
#include "runtime/partition_fabric.hpp"
#include "runtime/reliable.hpp"
#include "runtime/world.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;
using runtime::parallel_partition_report;
using runtime::resilience_options;
using runtime::run_parallel_partition;

std::vector<graph::weight> heavy_tail_weights(int k, std::uint64_t seed) {
  sfp::rng r(seed);
  std::vector<graph::weight> w(static_cast<std::size_t>(k));
  for (auto& x : w) {
    x = 1 + static_cast<graph::weight>(r.below(9));
    if (r.below(16) == 0) x *= 100;  // occasional 2-orders-heavier element
  }
  return w;
}

void expect_matches_serial(const parallel_partition_report& report,
                           const partition::partition& serial,
                           const core::cube_curve& curve,
                           std::span<const graph::weight> weights,
                           const std::string& what) {
  ASSERT_EQ(report.plan.part_of.size(), serial.part_of.size()) << what;
  EXPECT_EQ(report.plan.num_parts, serial.num_parts) << what;
  for (std::size_t e = 0; e < serial.part_of.size(); ++e)
    ASSERT_EQ(report.plan.part_of[e], serial.part_of[e])
        << what << " diverges at element " << e;
  const auto diag = core::validate_plan(report.plan, curve, weights);
  EXPECT_TRUE(diag.ok) << what << " failed " << diag.invariant << ": "
                       << diag.detail;
  // Boundaries are the plan in compressed form: strictly increasing, and
  // labeling any element against them reproduces its label.
  ASSERT_EQ(report.boundaries.size(),
            static_cast<std::size_t>(report.plan.num_parts) - 1);
  for (std::size_t i = 1; i < report.boundaries.size(); ++i)
    EXPECT_GT(report.boundaries[i], report.boundaries[i - 1]) << what;
}

// ---------------------------------------------------------------------------
// The wall: Ne sweep x {uniform, heavy-tail} x Nproc sweep x rank counts.

TEST(ParallelPartitionParity, SweepMatchesSerialElementForElement) {
  const int kNe[] = {2, 3, 4, 6, 9};           // 2^n * 3^m small sizes
  const int kNparts[] = {2, 3, 5, 7, 9, 16, 17};
  const int kRanks[] = {1, 2, 4, 7};
  for (const int ne : kNe) {
    const mesh::cubed_sphere mesh(ne);
    const core::cube_curve curve = core::build_cube_curve(mesh);
    const core::cube_curve_spec spec = core::spec_of(curve);
    const int k = mesh.num_elements();

    std::vector<std::vector<graph::weight>> weight_cases;
    weight_cases.emplace_back();  // empty = uniform
    weight_cases.push_back(
        heavy_tail_weights(k, 1000 + static_cast<std::uint64_t>(ne)));

    for (const auto& weights : weight_cases) {
      for (const int nparts : kNparts) {
        if (nparts > k) continue;
        const partition::partition serial =
            core::sfc_partition(curve, nparts, weights);
        for (const int nranks : kRanks) {
          const parallel_partition_report report =
              run_parallel_partition(mesh, spec, nparts, weights, nranks);
          expect_matches_serial(
              report, serial, curve, weights,
              "Ne=" + std::to_string(ne) + " nparts=" +
                  std::to_string(nparts) + " ranks=" +
                  std::to_string(nranks) +
                  (weights.empty() ? " uniform" : " heavy-tail"));
        }
      }
    }
  }
}

TEST(ParallelPartitionParity, PaperRegimeManyPartsDefaultOptions) {
  // The paper's regime: ~8 elements per part, so each rank's walk places
  // dozens to hundreds of cuts (all 1,727 on one rank) and heavy elements
  // tie several cuts on one position.
  for (const int ne : {12, 48}) {
    const mesh::cubed_sphere mesh(ne);
    const core::cube_curve curve = core::build_cube_curve(mesh);
    const core::cube_curve_spec spec = core::spec_of(curve);
    const int k = mesh.num_elements();
    const int nparts = k / 8;  // 108 and 1,728

    std::vector<std::vector<graph::weight>> weight_cases;
    weight_cases.emplace_back();  // empty = uniform
    weight_cases.push_back(
        heavy_tail_weights(k, 2000 + static_cast<std::uint64_t>(ne)));
    for (const auto& weights : weight_cases) {
      const partition::partition serial =
          core::sfc_partition(curve, nparts, weights);
      for (const int nranks : {1, 2, 3}) {
        const parallel_partition_report report =
            run_parallel_partition(mesh, spec, nparts, weights, nranks);
        expect_matches_serial(
            report, serial, curve, weights,
            "Ne=" + std::to_string(ne) + " nparts=" + std::to_string(nparts) +
                " ranks=" + std::to_string(nranks) +
                (weights.empty() ? " uniform" : " heavy-tail"));
      }
    }
  }
}

TEST(ParallelPartitionParity, MoreRanksThanElements) {
  // Ne = 1: K = 6 elements over 7 ranks — empty blocks participate in
  // every collective and the plan still matches the serial slicer.
  const mesh::cubed_sphere mesh(1);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  for (const int nparts : {2, 3, 6}) {
    const partition::partition serial = core::sfc_partition(curve, nparts);
    const parallel_partition_report report =
        run_parallel_partition(mesh, spec, nparts, {}, 7);
    expect_matches_serial(report, serial, curve, {},
                          "Ne=1 nparts=" + std::to_string(nparts) +
                              " ranks=7");
  }
}

TEST(ParallelPartitionParity, StatsAccountForEveryElement) {
  const mesh::cubed_sphere mesh(4);
  const core::cube_curve_spec spec = core::build_cube_curve_spec(mesh);
  const parallel_partition_report report =
      run_parallel_partition(mesh, spec, 5, {}, 4);
  std::int64_t owned = 0;
  for (const auto& st : report.rank_stats) owned += st.local_elements;
  EXPECT_EQ(owned, mesh.num_elements());
}

TEST(ParallelPartitionRank, WritesExactlyTheLabelsOfItsOwnRange) {
  // The contract that makes the driver's shared plan race-free: each rank,
  // handed its own copy of part_of full of a sentinel, changes exactly the
  // elements at the positions it owns, and writes the serial label there.
  constexpr graph::vid kSentinel = -7;
  for (const int ne : {1, 6}) {
    const mesh::cubed_sphere mesh(ne);
    const core::cube_curve curve = core::build_cube_curve(mesh);
    const core::cube_curve_spec spec = core::spec_of(curve);
    const int k = mesh.num_elements();
    const std::vector<graph::weight> weights = heavy_tail_weights(k, 77);
    const int nparts = std::min(k, 7);
    const partition::partition serial =
        core::sfc_partition(curve, nparts, weights);
    for (const int nranks : {3, 4}) {
      std::vector<std::vector<graph::vid>> part_of(
          static_cast<std::size_t>(nranks),
          std::vector<graph::vid>(static_cast<std::size_t>(k), kSentinel));
      runtime::world w(nranks);
      w.run([&](runtime::transport& t) {
        runtime::reliable_channel channel(t);
        runtime::reliable_peer_comm comm(channel);
        (void)core::parallel_partition_rank(
            mesh, spec, nparts, weights, comm,
            part_of[static_cast<std::size_t>(t.rank())]);
        channel.fence();
      });
      for (int r = 0; r < nranks; ++r) {
        const std::int64_t begin = core::element_block_begin(k, nranks, r);
        const std::int64_t end = core::element_block_begin(k, nranks, r + 1);
        const std::vector<graph::vid>& mine =
            part_of[static_cast<std::size_t>(r)];
        for (int pos = 0; pos < k; ++pos) {
          const auto e = static_cast<std::size_t>(
              curve.order[static_cast<std::size_t>(pos)]);
          const graph::vid want =
              pos >= begin && pos < end ? serial.part_of[e] : kSentinel;
          ASSERT_EQ(mine[e], want) << "Ne=" << ne << " ranks=" << nranks
                                   << " rank " << r << " position " << pos;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fabric smoke: a small run through the resilient runner, plus a chaos
// schedule that drops data frames and must heal through retransmission
// without perturbing the plan.

TEST(ParallelPartitionOverFabric, SmallSweepMatchesSerial) {
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const std::vector<graph::weight> weights = heavy_tail_weights(54, 42);
  for (const int nparts : {2, 7}) {
    const partition::partition serial =
        core::sfc_partition(curve, nparts, weights);
    const parallel_partition_report report =
        run_parallel_partition(mesh, spec, nparts, weights, 3);
    expect_matches_serial(report, serial, curve, weights,
                          "nparts=" + std::to_string(nparts));
    EXPECT_GT(report.reliable.data_received, 0);
  }
}

TEST(ParallelPartitionOverFabric, HealsThroughMessageDropsAndMatchesSerial) {
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const std::vector<graph::weight> weights = heavy_tail_weights(54, 7);
  const partition::partition serial =
      core::sfc_partition(curve, 5, weights);

  resilience_options opts;
  opts.faults.seed = 99;
  runtime::fault_plan::message_fault drop;
  drop.drop_probability = 0.2;
  // Pin the chaos to reliable *data* frames (header + payload): ack-frame
  // interleaving is timing-dependent and would make the schedule unstable.
  drop.min_payload = runtime::wire::header_doubles + 1;
  opts.faults.message_faults.push_back(drop);

  const parallel_partition_report report =
      run_parallel_partition(mesh, spec, 5, weights, 4, opts);
  expect_matches_serial(report, serial, curve, weights, "under drops");
  // The chaos actually bit, and the reliable layer healed it.
  EXPECT_GT(report.counters.injected_drops, 0);
  EXPECT_GT(report.reliable.retransmits, 0);
}

// ---------------------------------------------------------------------------
// Rank kills: fail-stop deaths mid-run. A death aborts the attempt, and the
// partition restarts from scratch on the surviving world ranks, so every
// completed run must still produce the serial plan bit-identically and
// lose exactly the ranks whose kill fired. A run the escalation ladder
// gives up on must abort cleanly instead of hanging (the fabric abort ends
// every wait, so completion of these tests is itself the hang check).

resilience_options kill_run_options(runtime::fault_plan faults) {
  resilience_options opts;
  opts.faults = std::move(faults);
  return opts;
}

runtime::fault_plan kills(
    std::initializer_list<runtime::fault_plan::kill_spec> specs) {
  runtime::fault_plan plan;
  plan.kills.assign(specs.begin(), specs.end());
  return plan;
}

TEST(ParallelPartitionOverFabric, SurvivesRankZeroKillAndMatchesSerial) {
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const std::vector<graph::weight> weights = heavy_tail_weights(54, 11);
  const partition::partition serial = core::sfc_partition(curve, 5, weights);

  // The root dies mid-collective; rank 1 is the root of the restart.
  const parallel_partition_report report = run_parallel_partition(
      mesh, spec, 5, weights, 4, kill_run_options(kills({{0, 2}})));
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 1);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{0}));
  expect_matches_serial(report, serial, curve, weights, "rank-0 kill restart");
}

TEST(ParallelPartitionOverFabric, SubQuorumKillsAbortCleanlyWithoutHang) {
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve_spec spec = core::build_cube_curve_spec(mesh);

  // No restart budget: the first death ends the run.
  resilience_options opts = kill_run_options(kills({{1, 1}}));
  opts.max_recoveries = 0;
  parallel_partition_report report =
      run_parallel_partition(mesh, spec, 5, {}, 3, opts);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.recoveries, 0);
  EXPECT_EQ(report.counters.injected_kills, 1);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(report.plan.part_of.empty());

  // A budget of one restart, and a second death in the restart: the root
  // dies on its first ack, before any broadcast, so rank 1 reaches its
  // second op only as the root of attempt 1 (the wire drops nothing here,
  // so nothing is ever retransmitted).
  opts = kill_run_options(kills({{0, 1}, {1, 2}}));
  opts.max_recoveries = 1;
  report = run_parallel_partition(mesh, spec, 5, {}, 3, opts);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.counters.injected_kills, 2);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{0, 1, 2}));
}

TEST(ParallelPartitionOverFabric, TwoOfThreeRanksKilledRecoverAlone) {
  // Two staggered deaths — the root at its first ack, then rank 1 as the
  // root of the restart — leave rank 2, which finishes the partition alone
  // on the solo path.
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const partition::partition serial = core::sfc_partition(curve, 5);

  const parallel_partition_report report = run_parallel_partition(
      mesh, spec, 5, {}, 3, kill_run_options(kills({{0, 1}, {1, 2}})));
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 2);
  EXPECT_GE(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{0, 1}));
  expect_matches_serial(report, serial, curve, {}, "two of three killed");
}

TEST(ParallelPartitionOverFabric, EveryRankKilledAtItsFirstOpLeavesTheRoot) {
  // Every rank is armed to die on its first send. The leaves send first
  // and die; the root only receives before their deaths end the attempt,
  // so it survives, and a lone survivor sends nothing: its kill never
  // fires, and it finishes the plan alone.
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const partition::partition serial = core::sfc_partition(curve, 5);

  const parallel_partition_report report = run_parallel_partition(
      mesh, spec, 5, {}, 3, kill_run_options(kills({{0, 1}, {1, 1}, {2, 1}})));
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 2);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{1, 2}));
  expect_matches_serial(report, serial, curve, {}, "every rank killed at op 1");
}

TEST(ParallelPartitionKills, OneKillAtEachEarlyOpKeepsSerialParity) {
  // One kill at ops 1..8 on the root and on a leaf of 4 ranks. A leaf sends 8 frames per attempt and the root 16 (data and
  // acks of the range-weight allgather, the cut allgather and the closing
  // fence), so every kill fires, mid-collective on both sides of the star.
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const std::vector<graph::weight> weights = heavy_tail_weights(54, 5);
  const partition::partition serial = core::sfc_partition(curve, 5, weights);
  for (const int rank : {0, 2}) {
    for (std::int64_t op = 1; op <= 8; ++op) {
      const std::string what = "rank " + std::to_string(rank) +
                               " killed at op " + std::to_string(op);
      const parallel_partition_report report = run_parallel_partition(
          mesh, spec, 5, weights, 4, kill_run_options(kills({{rank, op}})));
      ASSERT_FALSE(report.aborted) << what;
      EXPECT_EQ(report.counters.injected_kills, 1) << what;
      EXPECT_EQ(report.recoveries, 1) << what;
      EXPECT_EQ(report.lost_ranks, (std::vector<int>{rank})) << what;
      expect_matches_serial(report, serial, curve, weights, what);
    }
  }
}

TEST(ParallelPartitionKills, TwoDeathsAtExactQuorumStillMatchSerial) {
  // Ranks 0 and 2 die at staggered ops, in one attempt or in two, and
  // leave {1, 3}. The plan must match the serial slicer over the two-rank
  // restart.
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const partition::partition serial = core::sfc_partition(curve, 5);

  const parallel_partition_report report = run_parallel_partition(
      mesh, spec, 5, {}, 4,
      kill_run_options(kills({{0, 6}, {2, 3}})));
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 2);
  EXPECT_GE(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{0, 2}));
  expect_matches_serial(report, serial, curve, {},
                        "two kills leaving two ranks");
}

TEST(ParallelPartitionKills, TwoKillsAtTheFirstOpLoseBothRanks) {
  // Two leaves die on their first send, in the same attempt; the restart
  // runs on ranks {0, 3}.
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const partition::partition serial = core::sfc_partition(curve, 5);

  const parallel_partition_report report = run_parallel_partition(
      mesh, spec, 5, {}, 4,
      kill_run_options(kills({{1, 1}, {2, 1}})));
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 2);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{1, 2}));
  expect_matches_serial(report, serial, curve, {}, "two kills at op 1");
}

TEST(ParallelPartitionKills, RecoversUnderDefaultReliableOptions) {
  // The restart needs no tuned silence detection: the fabric abort ends
  // every wait the moment a rank dies.
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const partition::partition serial = core::sfc_partition(curve, 5);

  resilience_options opts;
  opts.faults = kills({{0, 2}});
  const parallel_partition_report report =
      run_parallel_partition(mesh, spec, 5, {}, 4, opts);
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 1);
  EXPECT_EQ(report.lost_ranks, (std::vector<int>{0}));
  expect_matches_serial(report, serial, curve, {},
                        "kill under default reliable options");
}

TEST(ParallelPartitionKills, RecoveriesCounterCountsOncePerRestart) {
  // Regression: every surviving rank used to bump partition.recoveries,
  // so one death on 4 ranks added 3.
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve_spec spec = core::build_cube_curve_spec(mesh);
  obs::counter& counter =
      obs::registry::global().get_counter("partition.recoveries");
  const std::int64_t before = counter.value();
  const parallel_partition_report report = run_parallel_partition(
      mesh, spec, 5, {}, 4,
      kill_run_options(kills({{2, 1}})));
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(counter.value() - before, report.recoveries);
}

}  // namespace
