// Regression tests for core::plan_recovery edge cases: collapsing to a
// single survivor (nparts=2), failure of the rank owning the curve head or
// tail (only one absorbing neighbour exists), weighted segments, and the
// structural invariants every plan must satisfy — survivor_of is a
// bijection onto the surviving pre-failure labels and exactly the failed
// part's elements migrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/escalation.hpp"
#include "core/rebalance.hpp"
#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/partition.hpp"

namespace {

using namespace sfp;

// Check every invariant a recovery plan promises, for any (part, failed).
void expect_valid_plan(const core::cube_curve& curve,
                       const partition::partition& before, int failed,
                       const core::recovery_plan& plan,
                       std::span<const graph::weight> weights = {}) {
  const int nparts = before.num_parts;
  ASSERT_EQ(plan.part.num_parts, nparts - 1);
  ASSERT_EQ(plan.part.part_of.size(), before.part_of.size());
  EXPECT_TRUE(partition::all_parts_nonempty(plan.part));

  // survivor_of is a bijection: new labels [0, nparts-1) onto exactly the
  // old labels minus the failed one, in ascending order (labels compact
  // around the hole, so relative order is preserved).
  ASSERT_EQ(plan.survivor_of.size(), static_cast<std::size_t>(nparts - 1));
  std::vector<graph::vid> expected;
  for (graph::vid l = 0; l < nparts; ++l)
    if (l != failed) expected.push_back(l);
  EXPECT_EQ(plan.survivor_of, expected);

  // Exactly the failed part's elements change physical owner; every other
  // element stays on the process that already hosts it.
  std::int64_t failed_elems = 0;
  graph::weight failed_weight = 0;
  for (std::size_t e = 0; e < before.part_of.size(); ++e) {
    const graph::vid old_label = before.part_of[e];
    const graph::vid new_label = plan.part.part_of[e];
    const graph::weight w = weights.empty() ? 1 : weights[e];
    if (old_label == failed) {
      ++failed_elems;
      failed_weight += w;
    } else {
      EXPECT_EQ(plan.survivor_of[static_cast<std::size_t>(new_label)],
                old_label)
          << "surviving element " << e << " migrated";
    }
  }
  EXPECT_EQ(plan.migration.moved_elements, failed_elems);
  EXPECT_EQ(plan.migration.moved_weight, failed_weight);
  EXPECT_DOUBLE_EQ(
      plan.migration.moved_fraction,
      static_cast<double>(failed_elems) /
          static_cast<double>(before.part_of.size()));

  // The new partition is still contiguous along the curve (a re-slice,
  // not a scatter): labels are non-decreasing in curve order.
  graph::vid prev = 0;
  for (const int e : curve.order) {
    const graph::vid l = plan.part.part_of[static_cast<std::size_t>(e)];
    EXPECT_GE(l, prev) << "label decreased along the curve at element " << e;
    prev = l;
  }
}

TEST(PlanRecovery, TwoPartsFailFirstLeavesSingleSurvivor) {
  const mesh::cubed_sphere m(4);
  const auto curve = core::build_cube_curve(m);
  const auto p0 = core::sfc_partition(curve, 2);
  const auto plan = core::plan_recovery(curve, p0, 0);
  expect_valid_plan(curve, p0, 0, plan);
  // The lone survivor is pre-failure rank 1 and owns every element.
  EXPECT_EQ(plan.survivor_of, std::vector<graph::vid>{1});
  for (const auto l : plan.part.part_of) EXPECT_EQ(l, 0);
  // It absorbed exactly rank 0's half.
  EXPECT_EQ(plan.migration.moved_elements, m.num_elements() / 2);
}

TEST(PlanRecovery, TwoPartsFailSecondLeavesSingleSurvivor) {
  const mesh::cubed_sphere m(4);
  const auto curve = core::build_cube_curve(m);
  const auto p0 = core::sfc_partition(curve, 2);
  const auto plan = core::plan_recovery(curve, p0, 1);
  expect_valid_plan(curve, p0, 1, plan);
  EXPECT_EQ(plan.survivor_of, std::vector<graph::vid>{0});
  for (const auto l : plan.part.part_of) EXPECT_EQ(l, 0);
}

TEST(PlanRecovery, CurveHeadFailureAbsorbedByRightNeighbourOnly) {
  // Rank 0 owns the head of the curve: there is no left neighbour, so its
  // whole segment must flow right into pre-failure rank 1.
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  const int nparts = 12;
  const auto p0 = core::sfc_partition(curve, nparts);
  const auto plan = core::plan_recovery(curve, p0, 0);
  expect_valid_plan(curve, p0, 0, plan);
  for (std::size_t e = 0; e < p0.part_of.size(); ++e) {
    if (p0.part_of[e] == 0) {
      EXPECT_EQ(plan.survivor_of[static_cast<std::size_t>(
                    plan.part.part_of[e])],
                1);
    }
  }
}

TEST(PlanRecovery, CurveTailFailureAbsorbedByLeftNeighbourOnly) {
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  const int nparts = 12;
  const auto p0 = core::sfc_partition(curve, nparts);
  const int failed = nparts - 1;
  const auto plan = core::plan_recovery(curve, p0, failed);
  expect_valid_plan(curve, p0, failed, plan);
  for (std::size_t e = 0; e < p0.part_of.size(); ++e) {
    if (p0.part_of[e] == failed) {
      EXPECT_EQ(plan.survivor_of[static_cast<std::size_t>(
                    plan.part.part_of[e])],
                failed - 1);
    }
  }
}

TEST(PlanRecovery, InteriorFailureSplitsBetweenBothNeighbours) {
  const mesh::cubed_sphere m(8);
  const auto curve = core::build_cube_curve(m);
  const int nparts = 12;
  const auto p0 = core::sfc_partition(curve, nparts);
  const int failed = 5;
  const auto plan = core::plan_recovery(curve, p0, failed);
  expect_valid_plan(curve, p0, failed, plan);
  // With unit weights and an even segment, each neighbour takes half.
  std::int64_t to_left = 0, to_right = 0;
  for (std::size_t e = 0; e < p0.part_of.size(); ++e) {
    if (p0.part_of[e] != failed) continue;
    const graph::vid survivor =
        plan.survivor_of[static_cast<std::size_t>(plan.part.part_of[e])];
    if (survivor == failed - 1) ++to_left;
    else if (survivor == failed + 1) ++to_right;
    else FAIL() << "element left a non-adjacent part: " << survivor;
  }
  EXPECT_GT(to_left, 0);
  EXPECT_GT(to_right, 0);
  EXPECT_LE(std::abs(to_left - to_right), 1);
}

TEST(PlanRecovery, WeightedSegmentsSplitAtWeightMidpoint) {
  // Heavily skewed weights: the failed segment's split point follows
  // weight, not element count, and migration accounting uses the weights.
  const mesh::cubed_sphere m(4);
  const auto curve = core::build_cube_curve(m);
  const int k = m.num_elements();
  std::vector<graph::weight> w(static_cast<std::size_t>(k), 1);
  // Make the first half of the curve 10x heavier.
  for (std::size_t pos = 0; pos < curve.order.size() / 2; ++pos)
    w[static_cast<std::size_t>(curve.order[pos])] = 10;
  const int nparts = 8;
  const auto p0 = core::sfc_partition(curve, nparts, w);
  for (const int failed : {0, 3, nparts - 1}) {
    const auto plan = core::plan_recovery(curve, p0, failed, w);
    expect_valid_plan(curve, p0, failed, plan, w);
  }
}

TEST(PlanRecovery, EveryRankFailureYieldsValidPlan) {
  // Sweep: losing any single rank must produce a structurally valid plan.
  const mesh::cubed_sphere m(4);
  const auto curve = core::build_cube_curve(m);
  const int nparts = 16;
  const auto p0 = core::sfc_partition(curve, nparts);
  for (int failed = 0; failed < nparts; ++failed) {
    SCOPED_TRACE("failed=" + std::to_string(failed));
    const auto plan = core::plan_recovery(curve, p0, failed);
    expect_valid_plan(curve, p0, failed, plan);
  }
}

// ---- escalation policy ------------------------------------------------------

TEST(Escalation, KilledRankIsTheVictim) {
  const auto d = core::decide_escalation(core::failure_kind::rank_killed,
                                         /*thrower=*/2, /*peer=*/-1,
                                         /*attempt=*/0, /*max_recoveries=*/1,
                                         /*nranks=*/4);
  EXPECT_TRUE(d.recover);
  EXPECT_EQ(d.victim, 2);
}

TEST(Escalation, UnreachablePeerIsTheVictimNotTheThrower) {
  // The thrower is the healthy side that gave up retransmitting; recovery
  // must drop the silent peer.
  const auto d = core::decide_escalation(core::failure_kind::peer_unreachable,
                                         /*thrower=*/0, /*peer=*/3, 0, 1, 4);
  EXPECT_TRUE(d.recover);
  EXPECT_EQ(d.victim, 3);
}

TEST(Escalation, NeverRecoversPastTheBudgetOrBelowTwoRanks) {
  EXPECT_FALSE(core::decide_escalation(core::failure_kind::rank_killed, 0, -1,
                                       /*attempt=*/1, /*max_recoveries=*/1, 4)
                   .recover);
  EXPECT_FALSE(core::decide_escalation(core::failure_kind::rank_killed, 0, -1,
                                       0, 1, /*nranks=*/1)
                   .recover);
}

TEST(Escalation, UnknownFailuresAndInvalidVictimsRethrow) {
  EXPECT_FALSE(
      core::decide_escalation(core::failure_kind::unknown, 2, 3, 0, 5, 4)
          .recover);
  // A peer id outside the world (or never set) cannot be recovered around.
  const auto d = core::decide_escalation(core::failure_kind::peer_unreachable,
                                         0, /*peer=*/-1, 0, 5, 4);
  EXPECT_FALSE(d.recover);
  EXPECT_EQ(d.victim, -1);
}

}  // namespace
