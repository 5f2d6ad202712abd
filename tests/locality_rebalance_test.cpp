// Tests for the curve-locality analysis and the dynamic rebalancing module.

#include <gtest/gtest.h>

#include <cmath>

#include "core/cube_curve.hpp"
#include "core/rebalance.hpp"
#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/metrics.hpp"
#include "sfc/locality.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

namespace {

using namespace sfp;
using namespace sfp::sfc;

// ---- locality ----------------------------------------------------------------

TEST(Locality, UnitStepAnchor) {
  const auto r = analyze_locality(hilbert_curve(4), 16);
  EXPECT_DOUBLE_EQ(r.dilation_lag1, 1.0);  // consecutive cells are adjacent
}

TEST(Locality, HilbertBeatsRowMajor) {
  const int side = 32;
  const auto h = analyze_locality(hilbert_curve(5), side);
  const auto rm = analyze_locality(row_major_order(side), side);
  // Note: row-major *aliases* at lags that are multiples of the side (lag 64
  // = exactly two rows down), so lag-64 dilation is not a fair comparison;
  // lag 16 (half a row) and the stretch/perimeter metrics are.
  EXPECT_LT(h.dilation_lag16, 0.5 * rm.dilation_lag16);
  EXPECT_LT(h.dilation_lag64, 2.0);  // absolute locality bound for Hilbert
  EXPECT_LT(h.max_stretch, rm.max_stretch);
  EXPECT_LT(h.mean_segment_perimeter_16, rm.mean_segment_perimeter_16);
}

TEST(Locality, PeanoIsComparablyLocal) {
  const auto h = analyze_locality(hilbert_curve(5), 32);     // 1024 cells
  const auto p = analyze_locality(peano_curve(3), 27);       // 729 cells
  // Same ballpark: within 2x of each other on medium-range dilation.
  EXPECT_LT(p.dilation_lag16, 2.0 * h.dilation_lag16);
  EXPECT_LT(h.dilation_lag16, 2.0 * p.dilation_lag16);
}

TEST(Locality, SegmentPerimetersNearIdeal) {
  const auto h = analyze_locality(hilbert_curve(5), 32);
  // Hilbert segments of 16 cells should be within ~2x of a perfect 4x4
  // square's perimeter; row-major strips of 16 are far worse (up to 34).
  EXPECT_LT(h.mean_segment_perimeter_16,
            2.0 * locality_report::ideal_perimeter(16));
  EXPECT_DOUBLE_EQ(locality_report::ideal_perimeter(16), 16.0);
}

TEST(Locality, RowMajorOrderShape) {
  const auto rm = row_major_order(3);
  ASSERT_EQ(rm.size(), 9u);
  EXPECT_EQ(rm[0], (cell{0, 0}));
  EXPECT_EQ(rm[3], (cell{0, 1}));
  EXPECT_EQ(rm[8], (cell{2, 2}));
}

TEST(Locality, Preconditions) {
  EXPECT_THROW(analyze_locality(hilbert_curve(2), 5), contract_error);
  EXPECT_THROW(analyze_locality(hilbert_curve(2), 4, 0), contract_error);
}

// ---- rebalance -----------------------------------------------------------------

TEST(Rebalance, IdenticalWeightsMoveNothing) {
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  const auto p0 = core::sfc_partition(curve, 96);
  core::migration_stats stats;
  const auto p1 = core::rebalance(curve, p0, {}, 96, &stats);
  EXPECT_EQ(stats.moved_elements, 0);
  EXPECT_EQ(p1.part_of, p0.part_of);
}

TEST(Rebalance, FixesStrongWeightSkew) {
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  const int k = m.num_elements();
  const auto p0 = core::sfc_partition(curve, 48);

  // "Day side" elements (x > 0) cost 3x — a strong physics imbalance.
  std::vector<graph::weight> w(static_cast<std::size_t>(k), 1);
  for (int e = 0; e < k; ++e)
    if (m.element_center_sphere(e).x > 0) w[static_cast<std::size_t>(e)] = 3;

  core::migration_stats stats;
  const auto p1 = core::rebalance(curve, p0, w, 48, &stats);
  graph::builder gb(k);
  gb.add_edge(0, 1);
  for (int e = 0; e < k; ++e)
    gb.set_vertex_weight(e, w[static_cast<std::size_t>(e)]);
  const auto g = gb.build();
  const auto weights_new = partition::part_weights(p1, g);
  const auto weights_old = partition::part_weights(p0, g);
  EXPECT_LT(load_balance(std::span<const graph::weight>(weights_new)),
            0.5 * load_balance(std::span<const graph::weight>(weights_old)));
  EXPECT_GT(stats.moved_elements, 0);
}

TEST(Rebalance, MigrationScalesWithDriftMagnitude) {
  // The SFC's incremental-rebalancing property: small weight drifts shift
  // only segment boundaries, so migration volume grows smoothly with the
  // drift instead of jumping to "reshuffle everything".
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  const int k = m.num_elements();
  const auto p0 = core::sfc_partition(curve, 48);

  double prev_fraction = -1.0;
  for (const graph::weight day_cost : {9, 10, 12, 24}) {  // night side = 8
    std::vector<graph::weight> w(static_cast<std::size_t>(k), 8);
    for (int e = 0; e < k; ++e)
      if (m.element_center_sphere(e).x > 0)
        w[static_cast<std::size_t>(e)] = day_cost;
    core::migration_stats stats;
    core::rebalance(curve, p0, w, 48, &stats);
    EXPECT_GT(stats.moved_fraction, prev_fraction) << day_cost;
    prev_fraction = stats.moved_fraction;
    if (day_cost == 9) {
      // 12.5% cost skew moves well under a third of the elements.
      EXPECT_LT(stats.moved_fraction, 0.30);
    }
  }
}

TEST(Rebalance, MigrationStatsCountExactly) {
  partition::partition a(2, {0, 0, 1, 1});
  partition::partition b(2, {0, 1, 1, 0});
  std::vector<graph::weight> w{1, 10, 1, 10};
  const auto stats = core::migration_between(a, b, w);
  EXPECT_EQ(stats.moved_elements, 2);
  EXPECT_EQ(stats.moved_weight, 20);
  EXPECT_DOUBLE_EQ(stats.moved_fraction, 0.5);
}

TEST(Rebalance, SupportsPartCountChange) {
  const mesh::cubed_sphere m(4);
  const auto curve = core::build_cube_curve(m);
  const auto p0 = core::sfc_partition(curve, 16);
  core::migration_stats stats;
  const auto p1 = core::rebalance(curve, p0, {}, 32, &stats);
  EXPECT_EQ(p1.num_parts, 32);
  EXPECT_TRUE(partition::all_parts_nonempty(p1));
  EXPECT_GT(stats.moved_elements, 0);  // finer parts relabel some elements
}

TEST(Rebalance, ShrinkingPartCountRemapsSurvivors) {
  // nparts -> nparts-1 via a full re-slice: remap keeps the usable labels
  // on their best-overlap parts, so migration stays bounded even though
  // every segment boundary shifts.
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  const auto p0 = core::sfc_partition(curve, 48);
  core::migration_stats stats;
  const auto p1 = core::rebalance(curve, p0, {}, 47, &stats);
  EXPECT_EQ(p1.num_parts, 47);
  EXPECT_TRUE(partition::all_parts_nonempty(p1));
  EXPECT_GT(stats.moved_elements, 0);
  // A full equal re-slice k -> k-1 moves ~1/4 of the elements after the
  // best label matching; far below "reshuffle everything".
  EXPECT_LT(stats.moved_fraction, 0.5);
}

TEST(Rebalance, PlanRecoveryMovesOnlyTheFailedSegment) {
  // The fault-tolerance path: absorb the failed segment into its
  // curve-adjacent neighbours. Exactly the failed part's elements move, so
  // moved_fraction == 1/nparts for unit weights — the O(imbalance)
  // re-slicing property the runtime's recovery protocol relies on.
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  const int nparts = 48;
  const auto p0 = core::sfc_partition(curve, nparts);
  for (const int failed : {0, 7, nparts - 1}) {
    const auto plan = core::plan_recovery(curve, p0, failed);
    EXPECT_EQ(plan.part.num_parts, nparts - 1);
    EXPECT_TRUE(partition::all_parts_nonempty(plan.part));
    EXPECT_NEAR(plan.migration.moved_fraction, 1.0 / nparts, 1e-12)
        << "failed=" << failed;
    EXPECT_LE(plan.migration.moved_fraction, 1.5 / nparts);
    // The survivor map renumbers around the hole.
    ASSERT_EQ(plan.survivor_of.size(), static_cast<std::size_t>(nparts - 1));
    for (int l = 0; l < nparts - 1; ++l)
      EXPECT_EQ(plan.survivor_of[static_cast<std::size_t>(l)],
                l + (l >= failed ? 1 : 0));
    // Survivors keep every element they had (only failed's elements moved).
    for (std::size_t e = 0; e < p0.part_of.size(); ++e) {
      if (p0.part_of[e] == failed) continue;
      const auto new_label = plan.part.part_of[e];
      EXPECT_EQ(plan.survivor_of[static_cast<std::size_t>(new_label)],
                p0.part_of[e]);
    }
  }
}

TEST(Rebalance, PlanRecoveryRespectsWeightsAtTheSplit) {
  // With weights, the failed run splits at its weight midpoint: each
  // absorbing neighbour gains about half the failed part's weight.
  const mesh::cubed_sphere m(4);
  const auto curve = core::build_cube_curve(m);
  const int k = m.num_elements();
  std::vector<graph::weight> w(static_cast<std::size_t>(k), 2);
  const auto p0 = core::sfc_partition(curve, 8, w);
  const int failed = 4;
  const auto plan = core::plan_recovery(curve, p0, failed, w);
  EXPECT_EQ(plan.migration.moved_weight,
            2 * plan.migration.moved_elements);
  // Neighbour loads: failed's weight went somewhere, total is conserved.
  std::vector<graph::weight> load(7, 0);
  for (std::size_t e = 0; e < plan.part.part_of.size(); ++e)
    load[static_cast<std::size_t>(plan.part.part_of[e])] +=
        w[e];
  graph::weight total = 0;
  for (const auto l : load) total += l;
  EXPECT_EQ(total, 2 * k);
}

TEST(Rebalance, PlanRecoveryPreconditions) {
  const mesh::cubed_sphere m(2);
  const auto curve = core::build_cube_curve(m);
  const auto p0 = core::sfc_partition(curve, 4);
  EXPECT_THROW(core::plan_recovery(curve, p0, -1), contract_error);
  EXPECT_THROW(core::plan_recovery(curve, p0, 4), contract_error);
  partition::partition single(
      1, std::vector<graph::vid>(p0.part_of.size(), 0));
  EXPECT_THROW(core::plan_recovery(curve, single, 0), contract_error);
}

TEST(Rebalance, Preconditions) {
  partition::partition a(2, {0, 1});
  partition::partition b(2, {0, 1, 1});
  EXPECT_THROW(core::migration_between(a, b), contract_error);
  std::vector<graph::weight> bad_w{1};
  partition::partition c(2, {0, 1});
  EXPECT_THROW(core::migration_between(a, c, bad_w), contract_error);
}

}  // namespace
