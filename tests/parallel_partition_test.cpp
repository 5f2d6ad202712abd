// The serial-parity wall for the distributed SFC partitioner: the parallel
// slicer (core/parallel_partition.hpp over runtime/partition_fabric.hpp)
// must produce *bit-identical* plans to the serial core::sfc_partition for
// every (Ne, schedule, Nproc, weights) combination — element for element —
// across rank counts, over both transport backends, and through message
// chaos. Every parallel plan is also piped through core::validate_plan, so
// the structural invariants (ownership, contiguity, balance) are audited
// independently of the serial comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/parallel_partition.hpp"
#include "core/sfc_partition.hpp"
#include "core/validate.hpp"
#include "mesh/cubed_sphere.hpp"
#include "runtime/partition_fabric.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;
using runtime::parallel_partition_report;
using runtime::parallel_partition_run_options;
using runtime::run_parallel_partition;
using runtime::transport_backend;

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
// The wall: Ne sweep x {uniform, heavy-tail} x Nproc sweep x rank counts,
// all over the in-process backend (the socket backend gets its own
// parameterized smoke below — running the full sweep over TCP would take
// minutes for no additional algorithmic coverage).

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
          parallel_partition_run_options opts;
          // Small windows force real refinement rounds even at these sizes.
          opts.partition.histogram_fanout = 4;
          opts.partition.window_elements = 8;
          const parallel_partition_report report = run_parallel_partition(
              mesh, spec, nparts, weights, nranks, opts);
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
  // The paper's regime: ~8 elements per part, so up to 1,727 splitters
  // share each round's probe list, with the default search options. The
  // two sizes cover both shapes of phase 2's 11-bit-digit radix sort:
  // K = 864 (Ne = 12) has 10 key bits and sorts in a single pass,
  // K = 13,824 (Ne = 48) has 14 and takes two.
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
  // The splitter search ran in lockstep: every rank saw the same rounds.
  for (const auto& st : report.rank_stats)
    EXPECT_EQ(st.rounds, report.rank_stats[0].rounds);
}

// ---------------------------------------------------------------------------
// Backend-parameterized smoke: the identical run over the in-process wire
// and loopback TCP, plus a chaos schedule that drops data frames and must
// heal through retransmission without perturbing the plan.

class ParallelPartitionOverBackend
    : public ::testing::TestWithParam<transport_backend> {};

TEST_P(ParallelPartitionOverBackend, SmallSweepMatchesSerial) {
  const mesh::cubed_sphere mesh(3);  // K = 54: small on purpose (TCP)
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const std::vector<graph::weight> weights = heavy_tail_weights(54, 42);
  for (const int nparts : {2, 7}) {
    const partition::partition serial =
        core::sfc_partition(curve, nparts, weights);
    parallel_partition_run_options opts;
    opts.backend = GetParam();
    const parallel_partition_report report =
        run_parallel_partition(mesh, spec, nparts, weights, 3, opts);
    expect_matches_serial(report, serial, curve, weights,
                          std::string(to_string(GetParam())) + " nparts=" +
                              std::to_string(nparts));
    EXPECT_GT(report.reliable.data_received, 0);
  }
}

TEST_P(ParallelPartitionOverBackend, HealsThroughMessageDropsAndMatchesSerial) {
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const std::vector<graph::weight> weights = heavy_tail_weights(54, 7);
  const partition::partition serial =
      core::sfc_partition(curve, 5, weights);

  parallel_partition_run_options opts;
  opts.backend = GetParam();
  opts.faults.seed = 99;
  runtime::fault_plan::message_fault drop;
  drop.drop_probability = 0.2;
  // Pin the chaos to reliable *data* frames (header + payload): ack-frame
  // interleaving is timing-dependent and would make the schedule unstable.
  drop.min_payload = runtime::wire::header_doubles + 1;
  opts.faults.message_faults.push_back(drop);

  const parallel_partition_report report =
      run_parallel_partition(mesh, spec, 5, weights, 4, opts);
  expect_matches_serial(report, serial, curve, weights,
                        std::string(to_string(GetParam())) + " under drops");
  // The chaos actually bit, and the reliable layer healed it.
  EXPECT_GT(report.counters.injected_drops, 0);
  EXPECT_GT(report.reliable.retransmits, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ParallelPartitionOverBackend,
                         ::testing::Values(transport_backend::inproc,
                                           transport_backend::socket),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// ---------------------------------------------------------------------------
// Rank kills: fail-stop deaths mid-run. A quorum-surviving run must regroup
// and still produce the serial plan bit-identically; a sub-quorum run must
// abort cleanly instead of hanging (the channel's receive timeout bounds
// any stuck rank, so completion of these tests is itself the hang check).

parallel_partition_run_options kill_run_options(transport_backend backend) {
  parallel_partition_run_options opts;
  opts.backend = backend;
  // Fast retransmit exhaustion makes corpse detection definite within a
  // fraction of a second; the short base recv timeout keeps the regroup
  // silence budgets (counted in recv rounds) in wall-clock bounds.
  opts.reliable.retransmit_timeout = std::chrono::microseconds(5000);
  opts.reliable.max_backoff = std::chrono::microseconds(20000);
  opts.reliable.max_retransmits = 12;
  opts.reliable.recv_timeout = std::chrono::milliseconds(100);
  return opts;
}

TEST_P(ParallelPartitionOverBackend, SurvivesRankZeroKillAndMatchesSerial) {
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const std::vector<graph::weight> weights = heavy_tail_weights(54, 11);
  const partition::partition serial = core::sfc_partition(curve, 5, weights);

  parallel_partition_run_options opts = kill_run_options(GetParam());
  opts.faults.kills.push_back({0, 2});  // root dies mid-collective

  const parallel_partition_report report =
      run_parallel_partition(mesh, spec, 5, weights, 4, opts);
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 1);
  EXPECT_GE(report.recoveries, 1);
  EXPECT_GE(report.group_epoch, 1u);
  EXPECT_TRUE(std::find(report.lost_ranks.begin(), report.lost_ranks.end(),
                        0) != report.lost_ranks.end());
  expect_matches_serial(report, serial, curve, weights,
                        std::string(to_string(GetParam())) +
                            " rank-0 kill succession");
}

TEST(ParallelPartitionKills, TwoDeathsAtExactQuorumStillMatchSerial) {
  // Regression schedule: ranks 0 and 2 die at staggered ops, leaving
  // {1, 3} — exactly min_members. The late-detecting survivor used to be
  // falsely evicted when the coordinator's collect window expired before
  // the survivor's (longer) root-silence budget; the plan must instead
  // match the serial slicer over the two-rank group.
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve curve = core::build_cube_curve(mesh);
  const core::cube_curve_spec spec = core::spec_of(curve);
  const partition::partition serial = core::sfc_partition(curve, 5);

  parallel_partition_run_options opts =
      kill_run_options(transport_backend::inproc);
  opts.faults.kills.push_back({0, 6});
  opts.faults.kills.push_back({2, 3});

  const parallel_partition_report report =
      run_parallel_partition(mesh, spec, 5, {}, 4, opts);
  ASSERT_FALSE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 2);
  EXPECT_GE(report.recoveries, 1);
  EXPECT_EQ(report.lost_ranks.size(), 2u);
  expect_matches_serial(report, serial, curve, {},
                        "two kills at exact quorum");
}

TEST_P(ParallelPartitionOverBackend, SubQuorumKillsAbortCleanlyWithoutHang) {
  const mesh::cubed_sphere mesh(3);
  const core::cube_curve_spec spec = core::build_cube_curve_spec(mesh);

  parallel_partition_run_options opts = kill_run_options(GetParam());
  opts.faults.kills.push_back({0, 1});
  opts.faults.kills.push_back({1, 2});  // 1 survivor < min_members = 2

  const parallel_partition_report report =
      run_parallel_partition(mesh, spec, 5, {}, 3, opts);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.counters.injected_kills, 2);
  EXPECT_EQ(report.lost_ranks.size(), 3u);  // two corpses + the aborter
}

}  // namespace
