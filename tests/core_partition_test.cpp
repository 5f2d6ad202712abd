// Tests for the SFC partitioner: slicing the global curve into balanced
// contiguous segments (paper Section 3) and the resulting partition quality.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/sfc_partition.hpp"
#include "graph/ops.hpp"
#include "partition/metrics.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace sfp;
using namespace sfp::core;

TEST(OrderSlicing, EqualCountsWhenDivisible) {
  std::vector<int> order(12);
  std::iota(order.begin(), order.end(), 0);
  const auto p = partition_from_order(order, 4);
  const auto sizes = partition::part_sizes(p);
  for (const auto s : sizes) EXPECT_EQ(s, 3);
  // Contiguity along the order: labels non-decreasing.
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(p.part_of[static_cast<std::size_t>(order[i])],
              p.part_of[static_cast<std::size_t>(order[i - 1])]);
}

TEST(OrderSlicing, NearEqualWhenNotDivisible) {
  std::vector<int> order(10);
  std::iota(order.begin(), order.end(), 0);
  const auto p = partition_from_order(order, 3);
  const auto sizes = partition::part_sizes(p);
  std::int64_t mn = 100, mx = 0;
  for (const auto s : sizes) {
    mn = std::min(mn, s);
    mx = std::max(mx, s);
  }
  EXPECT_GE(mn, 3);
  EXPECT_LE(mx, 4);
}

TEST(OrderSlicing, WeightedBalancesWeightNotCount) {
  // Vertices 0..3 with weights 3,1,1,3 on the curve 0,1,2,3: two parts
  // should split as {0} | {1,2,3}? No: midpoints at 1.5, 3.5, 4.5, 6.5 of 8;
  // ideal halves split at 4 -> parts {0,1},{2,3} (weight 4 vs 4).
  std::vector<int> order{0, 1, 2, 3};
  std::vector<graph::weight> w{3, 1, 1, 3};
  const auto p = partition_from_order(order, w, 2);
  EXPECT_EQ(p.part_of[0], 0);
  EXPECT_EQ(p.part_of[1], 0);
  EXPECT_EQ(p.part_of[2], 1);
  EXPECT_EQ(p.part_of[3], 1);
}

TEST(OrderSlicing, HeavyVertexCannotStarveParts) {
  // One vertex holds nearly all weight; every part must still be non-empty.
  std::vector<int> order{0, 1, 2, 3, 4};
  std::vector<graph::weight> w{1, 1000, 1, 1, 1};
  const auto p = partition_from_order(order, w, 5);
  EXPECT_TRUE(partition::all_parts_nonempty(p));
  // Labels must still be monotone along the curve.
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(p.part_of[static_cast<std::size_t>(order[i])],
              p.part_of[static_cast<std::size_t>(order[i - 1])]);
}

TEST(OrderSlicing, RandomizedWeightsAlwaysValid) {
  rng r(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 20 + static_cast<int>(r.below(200));
    const int k = 1 + static_cast<int>(r.below(static_cast<std::uint64_t>(n)));
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::vector<graph::weight> w(static_cast<std::size_t>(n));
    for (auto& x : w) x = 1 + static_cast<graph::weight>(r.below(50));
    const auto p = partition_from_order(order, w, k);
    EXPECT_EQ(p.num_parts, k);
    EXPECT_TRUE(partition::all_parts_nonempty(p));
    for (std::size_t i = 1; i < order.size(); ++i)
      EXPECT_GE(p.part_of[static_cast<std::size_t>(order[i])],
                p.part_of[static_cast<std::size_t>(order[i - 1])]);
  }
}

TEST(OrderSlicing, Preconditions) {
  std::vector<int> order{0, 1};
  EXPECT_THROW(partition_from_order(order, 3), contract_error);  // parts > n
  EXPECT_THROW(partition_from_order(order, 0), contract_error);
  EXPECT_THROW(partition_from_order(std::vector<int>{}, 1), contract_error);
}

// ---- full SFC partitioning on the cubed-sphere ------------------------------

TEST(SfcPartition, PerfectBalanceAtPaperConfigurations) {
  // Paper: "chosen specifically so that an equal number of spectral elements
  // are allocated to each processor" — SFC then achieves LB(nelemd) = 0.
  struct config {
    int ne;
    int nproc;
  };
  for (const config c : {config{8, 96}, config{8, 384}, config{9, 486},
                         config{16, 768}, config{18, 486}}) {
    const mesh::cubed_sphere m(c.ne);
    const auto p = sfc_partition(m, c.nproc);
    const auto g = m.dual_graph();
    const auto metrics = partition::compute_metrics(g, p);
    EXPECT_DOUBLE_EQ(metrics.lb_elems, 0.0)
        << "Ne=" << c.ne << " Nproc=" << c.nproc;
    EXPECT_TRUE(partition::all_parts_nonempty(p));
  }
}

TEST(SfcPartition, PartsAreContiguousCurveSegments) {
  const mesh::cubed_sphere m(8);
  const cube_curve curve = build_cube_curve(m);
  const auto p = sfc_partition(curve, 48);
  graph::vid prev = 0;
  for (const int e : curve.order) {
    const graph::vid label = p.part_of[static_cast<std::size_t>(e)];
    EXPECT_GE(label, prev);
    EXPECT_LE(label, prev + 1);
    prev = label;
  }
}

TEST(SfcPartition, PartsAreConnectedSubdomains) {
  // Contiguous segments of a continuous curve are connected in the edge-
  // adjacency graph — the locality property that keeps communication local.
  const mesh::cubed_sphere m(8);
  const auto p = sfc_partition(m, 24);
  const auto g = m.dual_graph(8, 1, /*include_corners=*/false);
  for (int part = 0; part < 24; ++part) {
    std::vector<graph::vid> keep;
    for (graph::vid v = 0; v < g.num_vertices(); ++v)
      if (p.part_of[static_cast<std::size_t>(v)] == part) keep.push_back(v);
    ASSERT_FALSE(keep.empty());
    std::vector<graph::vid> old_of_new;
    const auto sub = graph::induced_subgraph(g, keep, old_of_new);
    EXPECT_TRUE(graph::is_connected(sub)) << "part " << part;
  }
}

TEST(SfcPartition, WeightedElementsBalanceWeight) {
  const mesh::cubed_sphere m(4);
  const cube_curve curve = build_cube_curve(m);
  rng r(5);
  std::vector<graph::weight> w(static_cast<std::size_t>(m.num_elements()));
  for (auto& x : w) x = 1 + static_cast<graph::weight>(r.below(4));
  const auto p = sfc_partition(curve, 8, w);
  // Weighted LB should be small (weights are bounded by 4x the mean).
  graph::builder b(m.num_elements());
  b.add_edge(0, 1);  // weights live on vertices; graph content irrelevant
  for (int v = 0; v < m.num_elements(); ++v)
    b.set_vertex_weight(v, w[static_cast<std::size_t>(v)]);
  const auto weights = partition::part_weights(p, b.build());
  const double lb = load_balance(std::span<const graph::weight>(weights));
  EXPECT_LT(lb, 0.25);
}

TEST(SfcPartition, SupportsAndNprocs) {
  EXPECT_TRUE(sfc_supports(8));
  EXPECT_TRUE(sfc_supports(9));
  EXPECT_TRUE(sfc_supports(18));
  EXPECT_TRUE(sfc_supports(1));
  EXPECT_FALSE(sfc_supports(5));
  EXPECT_FALSE(sfc_supports(14));

  const auto nprocs = equal_load_nprocs(8);  // K = 384
  EXPECT_EQ(nprocs.front(), 1);
  EXPECT_EQ(nprocs.back(), 384);
  for (const int p : nprocs) EXPECT_EQ(384 % p, 0);
  // Paper Figure 7 runs through 384 processors; 96, 192, 384 are all valid.
  const std::set<int> s(nprocs.begin(), nprocs.end());
  for (const int p : {1, 2, 4, 8, 96, 192, 384}) EXPECT_TRUE(s.count(p));
}

TEST(SfcPartition, OneElementPerProcessor) {
  const mesh::cubed_sphere m(4);
  const auto p = sfc_partition(m, m.num_elements());
  const auto sizes = partition::part_sizes(p);
  for (const auto s : sizes) EXPECT_EQ(s, 1);
}

}  // namespace
