// Tests for the multilevel graph partitioner (METIS stand-in):
// matching, coarsening, FM bisection, recursive bisection, k-way, and the
// volume-objective variant — including the qualitative behaviours the paper
// relies on (RB balances best; KWAY favours edgecut and tolerates imbalance).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/bisect.hpp"
#include "mgp/coarsen.hpp"
#include "mgp/kway.hpp"
#include "mgp/match.hpp"
#include "mgp/partitioner.hpp"
#include "partition/metrics.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;
using namespace sfp::mgp;

// ---- matching ---------------------------------------------------------------

TEST(Matching, ProducesValidMap) {
  rng r(1);
  const auto g = graph::grid_graph(6, 6);
  const matching m = heavy_edge_matching(g, 0, r);
  ASSERT_EQ(m.coarse_of.size(), 36u);
  EXPECT_LT(m.num_coarse, 36);      // something matched
  EXPECT_GE(m.num_coarse, 18);      // at most halved
  std::vector<int> count(static_cast<std::size_t>(m.num_coarse), 0);
  for (const graph::vid c : m.coarse_of) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, m.num_coarse);
    ++count[static_cast<std::size_t>(c)];
  }
  for (const int c : count) {
    EXPECT_GE(c, 1);
    EXPECT_LE(c, 2);  // matching merges at most pairs
  }
}

TEST(Matching, PrefersHeavyEdges) {
  // Path 0 -1- 1 -100- 2 -1- 3. HEM visits vertices in random order, so the
  // heavy middle edge is matched whenever 1 or 2 is visited first — half of
  // the random orders. (Visiting 0 or 3 first legitimately claims an
  // endpoint via a light edge: HEM is greedy from the visited vertex.)
  graph::builder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 100);
  b.add_edge(2, 3, 1);
  const auto g = b.build();
  int heavy_matched = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    rng r(seed);
    const matching m = heavy_edge_matching(g, 0, r);
    heavy_matched += (m.coarse_of[1] == m.coarse_of[2]);
  }
  // Binomial(40, 1/2): 12+ successes has p > 0.9997.
  EXPECT_GE(heavy_matched, 12);
}

TEST(Matching, RespectsWeightCap) {
  graph::builder b(2);
  b.add_edge(0, 1, 5);
  b.set_vertex_weight(0, 10);
  b.set_vertex_weight(1, 10);
  const auto g = b.build();
  rng r(3);
  const matching m = heavy_edge_matching(g, 15, r);  // 20 > cap, no merge
  EXPECT_EQ(m.num_coarse, 2);
  rng r2(3);
  const matching m2 = heavy_edge_matching(g, 20, r2);
  EXPECT_EQ(m2.num_coarse, 1);
}

// ---- coarsening --------------------------------------------------------------

TEST(Coarsen, ReachesTargetAndPreservesWeight) {
  rng r(7);
  const auto g = graph::grid_graph(16, 16);
  const hierarchy h = coarsen(g, 32, 0, r);
  EXPECT_GT(h.levels.size(), 2u);
  EXPECT_LE(h.coarsest().num_vertices(), 64);  // near target (stall-capped)
  for (const auto& lv : h.levels) {
    lv.g.validate();
    EXPECT_EQ(lv.g.total_vertex_weight(), g.total_vertex_weight());
  }
}

TEST(Coarsen, ProjectionRoundTrips) {
  rng r(7);
  const auto g = graph::grid_graph(8, 8);
  const hierarchy h = coarsen(g, 8, 0, r);
  ASSERT_GT(h.levels.size(), 1u);
  // Label the coarsest graph by vertex id and project to the finest level;
  // every fine vertex must inherit its coarse ancestor's label.
  std::vector<graph::vid> labels(
      static_cast<std::size_t>(h.coarsest().num_vertices()));
  std::iota(labels.begin(), labels.end(), 0);
  std::vector<graph::vid> fine = labels;
  for (std::size_t lvl = h.levels.size(); lvl-- > 1;)
    fine = project(h.levels[lvl], fine);
  ASSERT_EQ(fine.size(), static_cast<std::size_t>(g.num_vertices()));
  // Group weights by label must equal coarse vertex weights.
  std::vector<graph::weight> acc(labels.size(), 0);
  for (graph::vid v = 0; v < g.num_vertices(); ++v)
    acc[static_cast<std::size_t>(fine[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  for (std::size_t c = 0; c < labels.size(); ++c)
    EXPECT_EQ(acc[c], h.coarsest().vertex_weight(static_cast<graph::vid>(c)));
}

TEST(Coarsen, StallsGracefullyOnEdgelessGraph) {
  graph::builder b(10);
  b.add_edge(0, 1);  // nearly edgeless: matching can only merge one pair
  const auto g = b.build();
  rng r(1);
  const hierarchy h = coarsen(g, 2, 0, r);
  EXPECT_GE(h.coarsest().num_vertices(), 9);
}

// ---- FM refinement ------------------------------------------------------------

TEST(FmRefine, ImprovesABadBisection) {
  // 8x2 grid; start from an interleaved (maximally cut) split.
  const auto g = graph::grid_graph(8, 2);
  std::vector<graph::vid> side(16);
  for (int i = 0; i < 16; ++i) side[static_cast<std::size_t>(i)] = i % 2;
  const graph::weight before = graph::cut_weight(g, side);
  rng r(2);
  const graph::weight after = fm_refine(g, side, 8, 1.05, 8, r);
  EXPECT_EQ(after, graph::cut_weight(g, side));
  EXPECT_LT(after, before);
  EXPECT_LE(after, 4);  // optimal vertical split cuts 2; allow slack
  // Balance maintained.
  graph::weight w0 = 0;
  for (int i = 0; i < 16; ++i)
    if (side[static_cast<std::size_t>(i)] == 0) ++w0;
  EXPECT_GE(w0, 7);
  EXPECT_LE(w0, 9);
}

TEST(FmRefine, RespectsTargetWeights) {
  const auto g = graph::grid_graph(10, 1);
  std::vector<graph::vid> side(10, 0);
  side[9] = 1;  // tiny side 1; target is 7/3 split
  rng r(4);
  fm_refine(g, side, 7, 1.01, 8, r);
  graph::weight w0 = 0;
  for (const auto s : side) w0 += (s == 0);
  EXPECT_EQ(w0, 7);
}

// ---- bisect / recursive bisection ---------------------------------------------

TEST(Bisect, GridSplitsCleanly) {
  const auto g = graph::grid_graph(8, 8);
  rng r(options{}.seed);
  const auto side = bisect(g, 32, 1.03, r);
  graph::weight w0 = 0;
  for (const auto s : side) w0 += (s == 0);
  EXPECT_GE(w0, 30);
  EXPECT_LE(w0, 34);
  // A good bisection of an 8x8 grid cuts close to 8 edges.
  EXPECT_LE(graph::cut_weight(g, side), 14);
}

class RecursiveBisection : public ::testing::TestWithParam<int> {};

TEST_P(RecursiveBisection, BalancedAndComplete) {
  const int k = GetParam();
  const auto g = graph::grid_graph(12, 12);
  options opt;
  opt.algo = method::recursive_bisection;
  const auto p = partition_graph(g, k, opt);
  partition::validate(p, g);
  EXPECT_TRUE(partition::all_parts_nonempty(p));
  const auto sizes = partition::part_sizes(p);
  const auto mx = *std::max_element(sizes.begin(), sizes.end());
  const auto mn = *std::min_element(sizes.begin(), sizes.end());
  // 144 vertices into k parts: RB should stay within one–two vertices of
  // ideal at these sizes.
  EXPECT_LE(mx - mn, std::max<std::int64_t>(2, 144 / k / 4)) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Parts, RecursiveBisection,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 16, 48, 144),
                         ::testing::PrintToStringParamName());

TEST(RecursiveBisectionQuality, BeatsRandomCutOnGrid) {
  const auto g = graph::grid_graph(16, 16);
  options opt;
  opt.algo = method::recursive_bisection;
  const auto p = partition_graph(g, 8, opt);
  const auto m = partition::compute_metrics(g, p);
  // Random 8-way labelling of a 16x16 grid cuts ~7/8 of 480 edges (~420);
  // a real partitioner should do far better (ideal stripes cut ~112).
  EXPECT_LT(m.edgecut_weight, 220);
}

// ---- k-way ---------------------------------------------------------------------

class KwayParts : public ::testing::TestWithParam<int> {};

TEST_P(KwayParts, ValidCompleteAndWithinTolerance) {
  const int k = GetParam();
  const auto g = graph::grid_graph(12, 12);
  options opt;
  opt.algo = method::kway;
  const auto p = partition_graph(g, k, opt);
  partition::validate(p, g);
  EXPECT_TRUE(partition::all_parts_nonempty(p));
  const auto sizes = partition::part_sizes(p);
  const auto mx = *std::max_element(sizes.begin(), sizes.end());
  const double ideal = 144.0 / k;
  EXPECT_LE(static_cast<double>(mx), std::ceil(1.03 * ideal) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Parts, KwayParts,
                         ::testing::Values(2, 4, 8, 16, 36, 72),
                         ::testing::PrintToStringParamName());

TEST(Kway, RefineImprovesCut) {
  const auto g = graph::grid_graph(10, 10);
  rng r(5);
  std::vector<graph::vid> labels(100);
  for (int i = 0; i < 100; ++i)
    labels[static_cast<std::size_t>(i)] =
        static_cast<graph::vid>(r.below(4));
  const graph::weight before = graph::cut_weight(g, labels);
  rng r2(6);
  kway_refine(g, labels, 4, kway_objective::edgecut, 1.05, 8, r2);
  EXPECT_LT(graph::cut_weight(g, labels), before);
  // No part may be emptied by refinement.
  std::set<graph::vid> used(labels.begin(), labels.end());
  EXPECT_EQ(used.size(), 4u);
}

TEST(Kway, VolumeObjectiveReducesTcv) {
  const auto g = graph::grid_graph(10, 10);
  rng r(5);
  std::vector<graph::vid> labels(100);
  for (int i = 0; i < 100; ++i)
    labels[static_cast<std::size_t>(i)] =
        static_cast<graph::vid>(r.below(4));
  const auto before =
      partition::compute_metrics(g, partition::partition(4, labels));
  rng r2(6);
  kway_refine(g, labels, 4, kway_objective::total_volume, 1.05, 8, r2);
  const auto after =
      partition::compute_metrics(g, partition::partition(4, labels));
  EXPECT_LT(after.tcv_interfaces, before.tcv_interfaces);
}

TEST(Kway, DeterministicForFixedSeed) {
  const auto g = graph::grid_graph(9, 9);
  options opt;
  opt.algo = method::kway;
  const auto a = partition_graph(g, 6, opt);
  const auto b = partition_graph(g, 6, opt);
  EXPECT_EQ(a.part_of, b.part_of);
  options opt2 = opt;
  opt2.seed = 999;
  const auto c = partition_graph(g, 6, opt2);
  // Different seed is allowed to differ (not required, but overwhelmingly
  // likely on a 81-vertex graph); only assert validity.
  partition::validate(c, g);
}

// ---- behaviour the paper depends on ---------------------------------------------

TEST(PaperBehaviour, RbBalancesBetterThanKwayAtFineGranularity) {
  // K=384 cubed-sphere at 2 elements/processor: KWAY's imbalance tolerance
  // shows up while RB stays near-perfect — the effect behind paper Table 2.
  const mesh::cubed_sphere mesh(8);
  const auto g = mesh.dual_graph();
  options opt;
  opt.algo = method::recursive_bisection;
  const auto rb = partition_graph(g, 192, opt);
  opt.algo = method::kway;
  const auto kw = partition_graph(g, 192, opt);
  const auto m_rb = partition::compute_metrics(g, rb);
  const auto m_kw = partition::compute_metrics(g, kw);
  EXPECT_LE(m_rb.lb_elems, m_kw.lb_elems + 1e-12);
  EXPECT_LT(m_rb.lb_elems, 0.15);
}

TEST(PaperBehaviour, KwayCutsNoWorseThanRb) {
  const mesh::cubed_sphere mesh(8);
  const auto g = mesh.dual_graph();
  options opt;
  opt.algo = method::recursive_bisection;
  const auto rb = partition_graph(g, 16, opt);
  opt.algo = method::kway;
  const auto kw = partition_graph(g, 16, opt);
  const auto m_rb = partition::compute_metrics(g, rb);
  const auto m_kw = partition::compute_metrics(g, kw);
  // KWAY optimises edgecut; allow slack but it must not be grossly worse.
  EXPECT_LE(m_kw.edgecut_weight,
            static_cast<graph::weight>(1.15 * static_cast<double>(
                                                  m_rb.edgecut_weight)));
}

TEST(PaperBehaviour, AllMethodsRunViaFacade) {
  const mesh::cubed_sphere mesh(4);
  const auto g = mesh.dual_graph();
  const auto results = run_all_methods(g, 12);
  ASSERT_EQ(results.size(), 3u);
  std::set<std::string> names;
  for (const auto& res : results) {
    partition::validate(res.part, g);
    EXPECT_TRUE(partition::all_parts_nonempty(res.part));
    names.insert(method_name(res.algo));
  }
  EXPECT_EQ(names, (std::set<std::string>{"RB", "KWAY", "TV"}));
}

TEST(Facade, Preconditions) {
  const auto g = graph::grid_graph(2, 2);
  EXPECT_THROW(partition_graph(g, 0), contract_error);
  EXPECT_THROW(partition_graph(g, 5), contract_error);
  const auto p = partition_graph(g, 4);
  EXPECT_TRUE(partition::all_parts_nonempty(p));
}

TEST(Facade, SinglePart) {
  const auto g = graph::grid_graph(3, 3);
  const auto p = partition_graph(g, 1);
  for (const auto label : p.part_of) EXPECT_EQ(label, 0);
}

TEST(Facade, RandomGraphsAllMethodsAllSizes) {
  rng seed_rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    rng r(seed_rng());
    const auto g = graph::random_connected_graph(
        40 + static_cast<graph::vid>(r.below(80)), 150, 6, r);
    for (const int k : {2, 5, 9}) {
      for (const method m : {method::recursive_bisection, method::kway,
                             method::kway_volume}) {
        options opt;
        opt.algo = m;
        opt.seed = seed_rng();
        const auto p = partition_graph(g, k, opt);
        partition::validate(p, g);
        EXPECT_TRUE(partition::all_parts_nonempty(p))
            << method_name(m) << " k=" << k;
      }
    }
  }
}

}  // namespace
