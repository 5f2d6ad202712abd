// Additional cross-cutting coverage: comm/compute overlap in the machine
// model, exchange-plan vs metrics consistency, log levels, stopwatch, and
// remapping edge cases.

#include <gtest/gtest.h>

#include <thread>

#include "core/rebalance.hpp"
#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/metrics.hpp"
#include "perf/machine.hpp"
#include "perf/simulate.hpp"
#include "seam/assembly.hpp"
#include "seam/exchange.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace sfp;

// ---- perf overlap ------------------------------------------------------------

TEST(Overlap, FullOverlapNeverSlower) {
  const mesh::cubed_sphere m(8);
  const auto dual = m.dual_graph();
  const auto p = core::sfc_partition(m, 96);
  const perf::seam_workload w;
  perf::machine_model sync;
  perf::machine_model half = sync;
  half.comm_overlap = 0.5;
  perf::machine_model full = sync;
  full.comm_overlap = 1.0;
  const auto t0 = perf::simulate_step(dual, p, sync, w);
  const auto t1 = perf::simulate_step(dual, p, half, w);
  const auto t2 = perf::simulate_step(dual, p, full, w);
  EXPECT_LE(t1.total_s, t0.total_s);
  EXPECT_LE(t2.total_s, t1.total_s);
  // Full overlap is bounded below by pure compute of the critical rank.
  EXPECT_GE(t2.total_s, t2.compute_s - 1e-15);
}

TEST(Overlap, SynchronousDefaultIsAdditive) {
  const perf::machine_model m;
  EXPECT_DOUBLE_EQ(m.comm_overlap, 0.0);
  const mesh::cubed_sphere mesh(4);
  const auto t = perf::simulate_step(mesh.dual_graph(),
                                     core::sfc_partition(mesh, 12), m,
                                     perf::seam_workload{});
  EXPECT_NEAR(t.total_s, t.compute_s + t.comm_s, 1e-15);
}

TEST(Overlap, NodePlacement) {
  perf::machine_model m;
  EXPECT_EQ(m.node_of(0), 0);
  EXPECT_EQ(m.node_of(7), 0);
  EXPECT_EQ(m.node_of(8), 1);
  EXPECT_EQ(m.node_of(23), 2);
}

// ---- exchange plan vs metrics consistency --------------------------------------

TEST(ExchangeConsistency, PeerCountsMatchElementMetricsLoosely) {
  // The exchange plan counts dof-level peers; the dual-graph metrics count
  // element-level peers. A rank pair exchanging dofs must share at least an
  // element corner, so plan peers >= metric peers can differ — but both
  // must agree on *which ranks are completely isolated* (none, here) and
  // the plan's volume must be positive whenever the metric cut is.
  const mesh::cubed_sphere m(4);
  const seam::assembly dofs(m, 4);
  const auto part = core::sfc_partition(m, 12);
  const auto plan = seam::exchange_plan::build(dofs, part);
  const auto metrics = partition::compute_metrics(m.dual_graph(), part);
  EXPECT_GT(plan.total_exchange_volume(), 0);
  EXPECT_EQ(metrics.edgecut_edges > 0, plan.total_exchange_volume() > 0);
  for (std::size_t r = 0; r < plan.ranks.size(); ++r) {
    // Every rank with a cut edge has at least one exchange peer.
    if (metrics.send_interfaces[r] > 0) {
      EXPECT_GE(plan.ranks[r].peers.size(), 1u) << "rank " << r;
    }
    // Dof-level peers can exceed element-edge peers (corner sharing) but
    // never by more than the element peer count allows at np>=2... just
    // sanity-bound: <= num_parts - 1.
    EXPECT_LE(plan.ranks[r].peers.size(),
              static_cast<std::size_t>(part.num_parts - 1));
  }
}

TEST(ExchangeConsistency, VolumeScalesWithNp) {
  const mesh::cubed_sphere m(3);
  const auto part = core::sfc_partition(m, 9);
  const seam::assembly d3(m, 3), d6(m, 6);
  const auto plan3 = seam::exchange_plan::build(d3, part);
  const auto plan6 = seam::exchange_plan::build(d6, part);
  // More GLL points per edge => strictly more shared dofs to exchange.
  EXPECT_GT(plan6.total_exchange_volume(), plan3.total_exchange_volume());
}

// ---- remap edge cases ------------------------------------------------------------

TEST(Remap, IdentityWhenPartitionsEqual) {
  const mesh::cubed_sphere m(4);
  const auto p = core::sfc_partition(m, 8);
  partition::partition q = p;
  core::remap_to_maximize_overlap(p, q);
  EXPECT_EQ(q.part_of, p.part_of);
}

TEST(Remap, RecoversPurePermutation) {
  // If the new partition is the old one with labels permuted, remapping
  // must recover the original labels exactly (migration zero).
  const mesh::cubed_sphere m(4);
  const auto p = core::sfc_partition(m, 6);
  partition::partition q = p;
  for (auto& label : q.part_of) label = (label + 2) % 6;
  core::remap_to_maximize_overlap(p, q);
  EXPECT_EQ(q.part_of, p.part_of);
  EXPECT_EQ(core::migration_between(p, q).moved_elements, 0);
}

TEST(Remap, SupportsMismatchedPartCounts) {
  // Growing: the two reference labels are claimed by their best-overlap new
  // parts; the extra part gets a spare label. Labels stay in range.
  partition::partition a(2, {0, 1, 0, 1});
  partition::partition b(3, {0, 1, 2, 0});
  core::remap_to_maximize_overlap(a, b);
  EXPECT_EQ(b.num_parts, 3);
  for (const auto l : b.part_of) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
  // Shrinking: reference labels >= target.num_parts cannot be claimed.
  partition::partition wide(3, {0, 0, 1, 1, 2, 2});
  partition::partition narrow(2, {0, 0, 0, 1, 1, 1});
  core::remap_to_maximize_overlap(wide, narrow);
  EXPECT_EQ(narrow.num_parts, 2);
  // The part overlapping old part 0 keeps label 0; the other gets label 1.
  EXPECT_EQ(narrow.part_of[0], 0);
  EXPECT_EQ(narrow.part_of[5], 1);
}

TEST(Remap, PreservesPartitionContent) {
  // Remapping only renames parts: the multiset of part sizes is invariant.
  const mesh::cubed_sphere m(4);
  const auto p = core::sfc_partition(m, 12);
  auto q = core::sfc_partition(m, 12);
  // perturb q
  std::swap(q.part_of[0], q.part_of[50]);
  auto sizes_before = partition::part_sizes(q);
  std::sort(sizes_before.begin(), sizes_before.end());
  core::remap_to_maximize_overlap(p, q);
  auto sizes_after = partition::part_sizes(q);
  std::sort(sizes_after.begin(), sizes_after.end());
  EXPECT_EQ(sizes_before, sizes_after);
}

// ---- util odds and ends ------------------------------------------------------------

TEST(Log, LevelsFilter) {
  const log_level original = get_log_level();
  set_log_level(log_level::error);
  EXPECT_EQ(get_log_level(), log_level::error);
  // These must not crash (output suppressed/emitted to stderr).
  log_debug("dropped ", 42);
  log_error("emitted ", 3.14);
  set_log_level(log_level::off);
  log_error("also dropped");
  set_log_level(original);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  stopwatch clock;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = clock.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  EXPECT_NEAR(clock.milliseconds(), clock.seconds() * 1e3,
              clock.seconds() * 1e3 * 0.5);
  clock.reset();
  EXPECT_LT(clock.seconds(), 0.015);
}

}  // namespace
