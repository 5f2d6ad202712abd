// The closed-form cubed-sphere topology, the map-free dof numbering and the
// flat exchange-plan build, checked against the hash-map builders they
// replaced (tests/topology_oracle.hpp): every query, every array, exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sfc_partition.hpp"
#include "mesh/cubed_sphere.hpp"
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

void expect_same_plan(const seam::exchange_plan& got,
                      const seam::exchange_plan& want) {
  ASSERT_EQ(got.ranks.size(), want.ranks.size());
  for (std::size_t r = 0; r < got.ranks.size(); ++r) {
    const seam::rank_exchange_plan& g = got.ranks[r];
    const seam::rank_exchange_plan& w = want.ranks[r];
    EXPECT_EQ(g.owned, w.owned) << "rank " << r;
    EXPECT_EQ(g.node_dof_local, w.node_dof_local) << "rank " << r;
    EXPECT_EQ(g.touched_dofs, w.touched_dofs) << "rank " << r;
    EXPECT_EQ(g.inv_multiplicity, w.inv_multiplicity) << "rank " << r;
    ASSERT_EQ(g.peers.size(), w.peers.size()) << "rank " << r;
    for (std::size_t p = 0; p < g.peers.size(); ++p) {
      EXPECT_EQ(g.peers[p].rank, w.peers[p].rank);
      EXPECT_EQ(g.peers[p].dof_local, w.peers[p].dof_local);
    }
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
    const partition::partition sfc = core::sfc_partition(m, 3);
    expect_same_plan(seam::exchange_plan::build(dofs, sfc),
                     oracle::legacy_exchange_plan(dofs, sfc));
    partition::partition strided(3, std::vector<graph::vid>(
                                        static_cast<std::size_t>(m.num_elements())));
    for (std::size_t e = 0; e < strided.part_of.size(); ++e)
      strided.part_of[e] = static_cast<graph::vid>(e % 3);
    expect_same_plan(seam::exchange_plan::build(dofs, strided),
                     oracle::legacy_exchange_plan(dofs, strided));
  }
}

}  // namespace
