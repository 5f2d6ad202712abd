// The closed-form cubed-sphere topology, the map-free dof numbering and the
// rank-built exchange plans, checked against the hash-map builders they
// replaced (tests/topology_oracle.hpp): every query and every array
// exactly, and every plan canonically (by global dof).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cube_curve.hpp"
#include "core/rebalance.hpp"
#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/partitioner.hpp"
#include "seam/assembly.hpp"
#include "seam/exchange.hpp"
#include "topology_oracle.hpp"

namespace {

using namespace sfp;
using mesh::cubed_sphere;
using mesh::projection;

void expect_same_csr(const graph::csr& got, const graph::csr& want) {
  EXPECT_TRUE(std::ranges::equal(got.xadj(), want.xadj()));
  EXPECT_TRUE(std::ranges::equal(got.adjncy(), want.adjncy()));
  EXPECT_TRUE(std::ranges::equal(got.vwgt(), want.vwgt()));
  EXPECT_TRUE(std::ranges::equal(got.adjwgt(), want.adjwgt()));
}

/// A rank-built plan against the legacy full-node plan of the same rank,
/// canonically: local dofs are numbered in first-touch order, not in
/// ascending global order, so every entry is compared by its global dof.
/// Every shared node (multiplicity > 1) must be listed with its global dof
/// and inverse multiplicity, every interior node must be absent, and each
/// peer must carry the same global-dof sequence.
void expect_same_plan(const seam::rank_exchange_plan& got,
                      const oracle::legacy_rank_plan& want, int np) {
  ASSERT_EQ(got.owned, want.owned);
  ASSERT_EQ(got.np, np);
  ASSERT_EQ(got.local_size(), want.node_dof_local.size());
  const std::size_t slot = got.slot_size(), nb = got.slot_boundary.size();
  ASSERT_EQ(got.boundary_dof.size(), got.owned.size() * nb);
  ASSERT_EQ(got.inv_multiplicity.size(), got.global_dof.size());
  // Local dofs name distinct global dofs, one per shared dof of the rank.
  const std::set<std::int64_t> distinct(got.global_dof.begin(),
                                        got.global_dof.end());
  ASSERT_EQ(distinct.size(), got.global_dof.size());
  std::set<std::int64_t> shared;
  for (std::size_t l = 0; l < got.owned.size(); ++l) {
    std::size_t b = 0;
    for (std::size_t n = 0; n < slot; ++n) {
      const auto w =
          static_cast<std::size_t>(want.node_dof_local[l * slot + n]);
      const bool is_shared = want.inv_multiplicity[w] != 1.0;
      const bool listed =
          b < nb && static_cast<std::size_t>(got.slot_boundary[b]) == n;
      ASSERT_EQ(listed, is_shared) << "slot " << l << " node " << n;
      if (!listed) continue;
      const auto k = static_cast<std::size_t>(got.boundary_dof[l * nb + b++]);
      ASSERT_LT(k, got.global_dof.size());
      ASSERT_EQ(got.global_dof[k], want.touched_dofs[w])
          << "slot " << l << " node " << n;
      ASSERT_EQ(got.inv_multiplicity[k], want.inv_multiplicity[w]);
      shared.insert(want.touched_dofs[w]);
    }
    ASSERT_EQ(b, nb);
  }
  ASSERT_EQ(shared, distinct);
  ASSERT_EQ(got.peers.size(), want.peers.size());
  for (std::size_t p = 0; p < got.peers.size(); ++p) {
    ASSERT_EQ(got.peers[p].rank, want.peers[p].rank);
    std::vector<std::int64_t> g, w;
    for (const std::int32_t k : got.peers[p].dof_local)
      g.push_back(got.global_dof[static_cast<std::size_t>(k)]);
    for (const std::int32_t k : want.peers[p].dof_local)
      w.push_back(want.touched_dofs[static_cast<std::size_t>(k)]);
    ASSERT_EQ(g, w) << "peer " << want.peers[p].rank;
  }
}

/// Every rank's rank-built plan against the legacy build of `part`.
void expect_same_plans(const seam::assembly& dofs,
                       const partition::partition& part) {
  const std::vector<oracle::legacy_rank_plan> want =
      oracle::legacy_exchange_plan(dofs, part);
  const seam::exchange_plan got = seam::exchange_plan::build(dofs, part);
  ASSERT_EQ(got.ranks.size(), want.size());
  for (int r = 0; r < part.num_parts; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    expect_same_plan(got.ranks[static_cast<std::size_t>(r)],
                     want[static_cast<std::size_t>(r)], dofs.np());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class TopologyOracle
    : public ::testing::TestWithParam<std::tuple<int, projection>> {
 protected:
  int ne() const { return std::get<0>(GetParam()); }
  projection proj() const { return std::get<1>(GetParam()); }
};

TEST_P(TopologyOracle, EveryQueryMatchesTheHashMapBuilder) {
  const cubed_sphere m(ne(), proj());
  const oracle::legacy_topology old(m);
  for (int id = 0; id < m.num_elements(); ++id) {
    for (int e = 0; e < 4; ++e) {
      ASSERT_EQ(m.edge_neighbor(id, e), old.edge_neighbor(id, e))
          << "element " << id << " edge " << e;
      const mesh::edge_link got = m.edge_link_of(id, e);
      const mesh::edge_link want = old.edge_link_of(id, e);
      ASSERT_EQ(got.neighbor, want.neighbor) << "element " << id;
      ASSERT_EQ(got.neighbor_edge, want.neighbor_edge) << "element " << id;
      ASSERT_EQ(got.reversed, want.reversed) << "element " << id;
    }
    const mesh::corner_set cn = m.corner_neighbors(id);
    ASSERT_EQ(std::vector<int>(cn.begin(), cn.end()), old.corner_neighbors(id))
        << "element " << id;
    for (int c = 0; c < 4; ++c) {
      const mesh::corner_incidences links = m.corner_links(id, c);
      using incidence_list = std::vector<std::pair<int, int>>;
      ASSERT_EQ(incidence_list(links.begin(), links.end()),
                old.corner_links(id, c))
          << "element " << id << " corner " << c;
      ASSERT_EQ(m.corner_is_cube_vertex(id, c), old.corner_is_cube_vertex(id, c))
          << "element " << id << " corner " << c;
    }
  }
}

TEST_P(TopologyOracle, DualGraphArraysMatchTheBuilder) {
  const cubed_sphere m(ne(), proj());
  const oracle::legacy_topology old(m);
  expect_same_csr(m.dual_graph(), old.dual_graph(8, 1, true));
  expect_same_csr(m.dual_graph(8, 1, false), old.dual_graph(8, 1, false));
  expect_same_csr(m.dual_graph(5, 3), old.dual_graph(5, 3, true));
  expect_same_csr(m.dual_graph(1, 7, false), old.dual_graph(1, 7, false));
}

TEST_P(TopologyOracle, AssemblyNumberingMatchesTheHashMapNumbering) {
  const cubed_sphere m(ne(), proj());
  for (const int np : {2, 4, 8}) {
    const seam::assembly dofs(m, np);
    const oracle::legacy_dofs old(m, np);
    ASSERT_EQ(dofs.num_dofs(), old.num_dofs) << "np=" << np;
    std::size_t n = 0;
    for (int e = 0; e < m.num_elements(); ++e)
      for (int j = 0; j < np; ++j)
        for (int i = 0; i < np; ++i, ++n)
          ASSERT_EQ(dofs.dof_of(e, i, j), old.dof[n])
              << "np=" << np << " element " << e << " node (" << i << ","
              << j << ")";
    for (std::int64_t d = 0; d < dofs.num_dofs(); ++d)
      ASSERT_EQ(dofs.multiplicity(d), old.multiplicity[static_cast<std::size_t>(d)])
          << "np=" << np << " dof " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TopologyOracle,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 32, 48),
                       ::testing::Values(projection::equidistant,
                                         projection::equiangular)),
    [](const ::testing::TestParamInfo<TopologyOracle::ParamType>& p) {
      return "ne" + std::to_string(std::get<0>(p.param)) +
             (std::get<1>(p.param) == projection::equidistant
                  ? "_equidistant"
                  : "_equiangular");
    });

TEST(TopologyOracleLarge, DualGraphMatchesAtNe96) {
  const cubed_sphere m(96);
  const oracle::legacy_topology old(m);
  expect_same_csr(m.dual_graph(), old.dual_graph(8, 1, true));
  expect_same_csr(m.dual_graph(8, 1, false), old.dual_graph(8, 1, false));
}

TEST(TopologyOracleExchange, PlanMatchesTheHashMapBuild) {
  // A 3-part SFC plan as the SEAM runs use it, plus a strided labelling
  // whose parts touch at every element.
  for (const auto& [ne, np] : {std::pair{12, 4}, std::pair{32, 8}}) {
    const cubed_sphere m(ne);
    const seam::assembly dofs(m, np);
    expect_same_plans(dofs, core::sfc_partition(m, 3));
    partition::partition strided(3, std::vector<graph::vid>(
                                        static_cast<std::size_t>(m.num_elements())));
    for (std::size_t e = 0; e < strided.part_of.size(); ++e)
      strided.part_of[e] = static_cast<graph::vid>(e % 3);
    expect_same_plans(dofs, strided);
  }
}

/// Rank-built plans of every kind of plan a run is handed — an SFC slice,
/// a kway graph partition, the strided e % P labelling and a plan_recovery
/// re-slice — at P ∈ {1, 2, 3, 5, 8} and np ∈ {2, 3, 4, 8}, for one Ne.
class RankPlanOracle : public ::testing::TestWithParam<int> {};

TEST_P(RankPlanOracle, EveryRankMatchesTheLegacyPlanCanonically) {
  const int ne = GetParam();
  const cubed_sphere m(ne);
  const core::cube_curve curve = core::build_cube_curve(m);
  const graph::csr dual = m.dual_graph();
  for (const int nparts : {1, 2, 3, 5, 8}) {
    if (nparts > m.num_elements()) continue;
    std::vector<std::pair<std::string, partition::partition>> plans;
    const partition::partition sfc = core::sfc_partition(curve, nparts);
    plans.emplace_back("sfc", sfc);
    mgp::options opt;
    opt.algo = mgp::method::kway;
    plans.emplace_back("kway", mgp::partition_graph(dual, nparts, opt));
    partition::partition strided(
        nparts,
        std::vector<graph::vid>(static_cast<std::size_t>(m.num_elements())));
    for (std::size_t e = 0; e < strided.part_of.size(); ++e)
      strided.part_of[e] = static_cast<graph::vid>((e * 7919) % static_cast<std::size_t>(nparts));
    plans.emplace_back("strided", strided);
    if (nparts > 1)
      plans.emplace_back("recovery",
                         core::plan_recovery(curve, sfc, nparts / 2).part);
    for (const auto& [kind, part] : plans) {
      // A kway plan of a tiny mesh may leave a part empty; no run takes it.
      if (!partition::all_parts_nonempty(part)) continue;
      for (const int np : {2, 3, 4, 8}) {
        SCOPED_TRACE(kind + " P=" + std::to_string(nparts) +
                     " np=" + std::to_string(np));
        expect_same_plans(seam::assembly(m, np), part);
        if (HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ne, RankPlanOracle,
                         ::testing::Values(1, 2, 3, 4, 6, 12),
                         ::testing::PrintToStringParamName());

}  // namespace
