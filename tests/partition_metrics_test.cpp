// Tests for partition metrics: edgecut, TCV, spcv, and the paper's LB.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sfc_partition.hpp"
#include "graph/generators.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/partitioner.hpp"
#include "partition/metrics.hpp"
#include "partition/partition.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

namespace {

using namespace sfp;
using namespace sfp::partition;

using part_t = sfp::partition::partition;

part_t make(int parts, std::vector<graph::vid> labels) {
  return part_t(parts, std::move(labels));
}

TEST(PartitionType, Validation) {
  const auto g = graph::grid_graph(2, 2);
  EXPECT_NO_THROW(validate(make(2, {0, 1, 0, 1}), g));
  EXPECT_THROW(validate(make(2, {0, 1, 0}), g), contract_error);
  EXPECT_THROW(validate(make(2, {0, 1, 0, 2}), g), contract_error);
  EXPECT_THROW(validate(make(0, {0, 0, 0, 0}), g), contract_error);
}

TEST(PartitionType, SizesAndWeights) {
  graph::builder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.set_vertex_weight(3, 5);
  const auto g = b.build();
  const auto p = make(2, {0, 0, 0, 1});
  EXPECT_EQ(part_sizes(p), (std::vector<std::int64_t>{3, 1}));
  EXPECT_EQ(part_weights(p, g), (std::vector<graph::weight>{3, 5}));
  EXPECT_TRUE(all_parts_nonempty(p));
  EXPECT_FALSE(all_parts_nonempty(make(3, {0, 0, 2, 2})));
}

TEST(Metrics, SinglePartHasNoCommunication) {
  const auto g = graph::grid_graph(3, 3);
  const auto m = compute_metrics(g, make(1, std::vector<graph::vid>(9, 0)));
  EXPECT_EQ(m.edgecut_edges, 0);
  EXPECT_EQ(m.edgecut_weight, 0);
  EXPECT_DOUBLE_EQ(m.tcv_interfaces, 0.0);
  EXPECT_DOUBLE_EQ(m.lb_elems, 0.0);
  EXPECT_EQ(m.max_peers, 0);
}

TEST(Metrics, HalvedGrid) {
  // 4x2 grid split into left/right 2x2 halves: cut = 2 edges.
  const auto g = graph::grid_graph(4, 2);
  const auto p = make(2, {0, 0, 1, 1, 0, 0, 1, 1});
  const auto m = compute_metrics(g, p);
  EXPECT_EQ(m.edgecut_edges, 2);
  EXPECT_EQ(m.edgecut_weight, 2);
  EXPECT_DOUBLE_EQ(m.lb_elems, 0.0);
  // Boundary vertices: 1,5 in part 0 and 2,6 in part 1, each touching one
  // remote part -> TCV (interface units) = 4, spcv = 2 per part.
  EXPECT_DOUBLE_EQ(m.tcv_interfaces, 4.0);
  EXPECT_DOUBLE_EQ(m.send_interfaces[0], 2.0);
  EXPECT_DOUBLE_EQ(m.send_interfaces[1], 2.0);
  EXPECT_DOUBLE_EQ(m.lb_comm, 0.0);
  EXPECT_EQ(m.num_peers[0], 1);
  EXPECT_EQ(m.max_peers, 1);
  EXPECT_DOUBLE_EQ(m.tcv_bytes(100.0), 400.0);
}

TEST(Metrics, WeightedEdgesCountInWeightedVolume) {
  graph::builder b(2);
  b.add_edge(0, 1, 8);
  const auto g = b.build();
  const auto m = compute_metrics(g, make(2, {0, 1}));
  EXPECT_EQ(m.edgecut_edges, 1);
  EXPECT_EQ(m.edgecut_weight, 8);
  EXPECT_DOUBLE_EQ(m.send_weighted[0], 8.0);
  EXPECT_DOUBLE_EQ(m.send_weighted[1], 8.0);
  EXPECT_DOUBLE_EQ(m.tcv_weighted, 16.0);
  // Interface units: each vertex touches one remote part.
  EXPECT_DOUBLE_EQ(m.tcv_interfaces, 2.0);
}

TEST(Metrics, InterfaceCountingUsesDistinctParts) {
  // Star: center 0 adjacent to 1,2,3 in three different parts. The center
  // contributes 3 interfaces, each leaf 1.
  graph::builder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  const auto g = b.build();
  const auto m = compute_metrics(g, make(4, {0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(m.send_interfaces[0], 3.0);
  EXPECT_DOUBLE_EQ(m.send_interfaces[1], 1.0);
  EXPECT_DOUBLE_EQ(m.tcv_interfaces, 6.0);
  EXPECT_EQ(m.num_peers[0], 3);
  EXPECT_EQ(m.max_peers, 3);
}

TEST(Metrics, LoadImbalanceDetected) {
  const auto g = graph::grid_graph(4, 1);
  const auto m = compute_metrics(g, make(2, {0, 0, 0, 1}));
  // Sizes {3,1}: LB = (3-2)/3 = 1/3.
  EXPECT_NEAR(m.lb_elems, 1.0 / 3.0, 1e-12);
}

TEST(Metrics, CommPattern) {
  const auto g = graph::grid_graph(4, 1);  // path 0-1-2-3
  const auto p = make(3, {0, 1, 1, 2});
  const auto pattern = comm_pattern(g, p);
  ASSERT_EQ(pattern.size(), 3u);
  ASSERT_EQ(pattern[0].size(), 1u);
  EXPECT_EQ(pattern[0][0].first, 1);
  EXPECT_DOUBLE_EQ(pattern[0][0].second, 1.0);
  ASSERT_EQ(pattern[1].size(), 2u);  // part 1 talks to 0 and 2
  EXPECT_EQ(pattern[1][0].first, 0);
  EXPECT_EQ(pattern[1][1].first, 2);
}

TEST(Metrics, CubedSphereFullyDistributed) {
  // One element per processor (the paper's extreme limit): every element is
  // a boundary vertex, spcv equals its neighbour count.
  const mesh::cubed_sphere mesh(2);
  const auto g = mesh.dual_graph(8, 1);
  std::vector<graph::vid> labels(static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<graph::vid>(i);
  const auto m = compute_metrics(g, make(g.num_vertices(), std::move(labels)));
  EXPECT_EQ(m.edgecut_edges, g.num_edges());
  EXPECT_DOUBLE_EQ(m.lb_elems, 0.0);
  for (graph::vid v = 0; v < g.num_vertices(); ++v)
    EXPECT_DOUBLE_EQ(m.send_interfaces[static_cast<std::size_t>(v)],
                     static_cast<double>(g.degree(v)));
}

TEST(Metrics, SymmetricVolumes) {
  // Send volumes summed over parts equal twice... exactly: every cut edge
  // contributes its weight to both endpoint parts' send_weighted.
  const auto g = graph::grid_graph_8(4, 4, 8, 1);
  const auto p = make(2, [] {
    std::vector<graph::vid> l(16, 0);
    for (int i = 8; i < 16; ++i) l[static_cast<std::size_t>(i)] = 1;
    return l;
  }());
  const auto m = compute_metrics(g, p);
  EXPECT_DOUBLE_EQ(m.send_weighted[0], m.send_weighted[1]);
  EXPECT_DOUBLE_EQ(m.tcv_weighted, 2.0 * static_cast<double>(m.edgecut_weight));
}

// ---- oracle: the sort-and-map metrics the grouped walk replaced ----------
//
// Per vertex, the remote parts are sorted and deduplicated; per part, the
// peers are collected, sorted and deduplicated; volumes accumulate in
// doubles in vertex order; the comm pattern is one std::map per part. The
// library's walk must reproduce every field bit for bit.

metrics oracle_metrics(const graph::csr& g, const part_t& p) {
  metrics m;
  m.num_parts = p.num_parts;
  m.elems_per_part = part_sizes(p);
  m.weight_per_part = part_weights(p, g);
  m.lb_elems = sfp::load_balance(std::span<const std::int64_t>(m.elems_per_part));
  m.lb_weight =
      sfp::load_balance(std::span<const graph::weight>(m.weight_per_part));
  m.send_interfaces.assign(static_cast<std::size_t>(p.num_parts), 0.0);
  m.send_weighted.assign(static_cast<std::size_t>(p.num_parts), 0.0);
  m.num_peers.assign(static_cast<std::size_t>(p.num_parts), 0);
  std::vector<std::vector<int>> peer_sets(static_cast<std::size_t>(p.num_parts));
  std::vector<graph::vid> remote_parts;
  for (graph::vid v = 0; v < g.num_vertices(); ++v) {
    const graph::vid pv = p.part_of[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    remote_parts.clear();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::vid pu = p.part_of[static_cast<std::size_t>(nbrs[i])];
      if (pu == pv) continue;
      if (v < nbrs[i]) {
        ++m.edgecut_edges;
        m.edgecut_weight += wgts[i];
      }
      m.send_weighted[static_cast<std::size_t>(pv)] += static_cast<double>(wgts[i]);
      remote_parts.push_back(pu);
    }
    std::sort(remote_parts.begin(), remote_parts.end());
    remote_parts.erase(std::unique(remote_parts.begin(), remote_parts.end()),
                       remote_parts.end());
    m.send_interfaces[static_cast<std::size_t>(pv)] +=
        static_cast<double>(remote_parts.size());
    auto& peers = peer_sets[static_cast<std::size_t>(pv)];
    peers.insert(peers.end(), remote_parts.begin(), remote_parts.end());
  }
  for (int q = 0; q < p.num_parts; ++q) {
    auto& peers = peer_sets[static_cast<std::size_t>(q)];
    std::sort(peers.begin(), peers.end());
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    m.num_peers[static_cast<std::size_t>(q)] = static_cast<int>(peers.size());
    m.tcv_interfaces += m.send_interfaces[static_cast<std::size_t>(q)];
    m.tcv_weighted += m.send_weighted[static_cast<std::size_t>(q)];
  }
  m.lb_comm = sfp::load_balance(std::span<const double>(m.send_interfaces));
  m.max_peers = *std::max_element(m.num_peers.begin(), m.num_peers.end());
  return m;
}

std::vector<std::vector<std::pair<int, double>>> oracle_comm_pattern(
    const graph::csr& g, const part_t& p) {
  std::vector<std::map<int, double>> acc(static_cast<std::size_t>(p.num_parts));
  for (graph::vid v = 0; v < g.num_vertices(); ++v) {
    const graph::vid pv = p.part_of[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::vid pu = p.part_of[static_cast<std::size_t>(nbrs[i])];
      if (pu != pv)
        acc[static_cast<std::size_t>(pv)][pu] += static_cast<double>(wgts[i]);
    }
  }
  std::vector<std::vector<std::pair<int, double>>> out(acc.size());
  for (std::size_t q = 0; q < acc.size(); ++q)
    out[q].assign(acc[q].begin(), acc[q].end());
  return out;
}

/// Every field `==`, doubles included, plus the comm pattern.
void expect_matches_oracle(const graph::csr& g, const part_t& p,
                           const std::string& what) {
  SCOPED_TRACE(what);
  const metrics got = compute_metrics(g, p);
  const metrics want = oracle_metrics(g, p);
  EXPECT_EQ(got.num_parts, want.num_parts);
  EXPECT_EQ(got.edgecut_edges, want.edgecut_edges);
  EXPECT_EQ(got.edgecut_weight, want.edgecut_weight);
  EXPECT_EQ(got.elems_per_part, want.elems_per_part);
  EXPECT_EQ(got.weight_per_part, want.weight_per_part);
  EXPECT_EQ(got.lb_elems, want.lb_elems);
  EXPECT_EQ(got.lb_weight, want.lb_weight);
  EXPECT_EQ(got.send_interfaces, want.send_interfaces);
  EXPECT_EQ(got.send_weighted, want.send_weighted);
  EXPECT_EQ(got.num_peers, want.num_peers);
  EXPECT_EQ(got.tcv_interfaces, want.tcv_interfaces);
  EXPECT_EQ(got.tcv_weighted, want.tcv_weighted);
  EXPECT_EQ(got.lb_comm, want.lb_comm);
  EXPECT_EQ(got.max_peers, want.max_peers);
  EXPECT_EQ(comm_pattern(g, p), oracle_comm_pattern(g, p));
}

TEST(MetricsOracle, SfcPlansOnTheCubedSphere) {
  for (const int ne : {1, 2, 3, 8, 12, 96}) {
    const mesh::cubed_sphere mesh(ne);
    const int k = mesh.num_elements();
    const std::pair<const char*, graph::csr> graphs[] = {
        {"dual_graph()", mesh.dual_graph()},
        {"dual_graph(5, 3)", mesh.dual_graph(5, 3)},
        {"dual_graph(8, 1, false)", mesh.dual_graph(8, 1, false)}};
    for (const int nparts : {1, 2, 7, k / 8, k}) {
      if (nparts < 1 || nparts > k) continue;
      const part_t p = core::sfc_partition(mesh, nparts);
      for (const auto& [name, g] : graphs)
        expect_matches_oracle(g, p,
                              "Ne=" + std::to_string(ne) + " nparts=" +
                                  std::to_string(nparts) + " " + name);
    }
  }
}

TEST(MetricsOracle, MultilevelPlans) {
  const mesh::cubed_sphere mesh(8);
  const auto g = mesh.dual_graph();
  for (const auto algo : {mgp::method::recursive_bisection, mgp::method::kway}) {
    for (const int nparts : {2, 7, 48}) {
      mgp::options opt;
      opt.algo = algo;
      expect_matches_oracle(g, mgp::partition_graph(g, nparts, opt),
                            "method=" + std::to_string(static_cast<int>(algo)) +
                                " nparts=" + std::to_string(nparts));
    }
  }
}

/// Labels v -> (v * stride) % nparts: parts that interleave everywhere.
part_t strided(graph::vid nv, int nparts, int stride) {
  std::vector<graph::vid> labels(static_cast<std::size_t>(nv));
  for (graph::vid v = 0; v < nv; ++v)
    labels[static_cast<std::size_t>(v)] =
        static_cast<graph::vid>((static_cast<std::int64_t>(v) * stride) % nparts);
  return make(nparts, std::move(labels));
}

TEST(MetricsOracle, NonMeshGraphs) {
  graph::builder b(40);
  for (graph::vid v = 1; v < 40; ++v) b.add_edge(0, v, 1 + v % 5);  // degree 39
  for (graph::vid v = 1; v + 1 < 40; ++v) b.add_edge(v, v + 1, 3);
  for (graph::vid v = 0; v < 40; ++v) b.set_vertex_weight(v, 1 + (v * 7) % 11);
  const std::pair<const char*, graph::csr> graphs[] = {
      {"grid_graph", graph::grid_graph(9, 7)},
      {"grid_graph_8", graph::grid_graph_8(10, 6, 8, 1)},
      {"star+path builder", b.build()}};
  for (const auto& [name, g] : graphs)
    for (const int nparts : {1, 2, 5, 13})
      for (const int stride : {1, 3, 7})
        expect_matches_oracle(g, strided(g.num_vertices(), nparts, stride),
                              std::string(name) + " nparts=" +
                                  std::to_string(nparts) + " stride=" +
                                  std::to_string(stride));
}

TEST(MetricsOracle, PlansWithEmptyParts) {
  const mesh::cubed_sphere mesh(4);
  const auto g = mesh.dual_graph();
  // Only even parts are used, and the last parts get nothing at all.
  const part_t sparse = [&] {
    part_t p = strided(g.num_vertices(), 10, 1);
    for (auto& label : p.part_of) label = 2 * label;
    p.num_parts = 25;
    return p;
  }();
  expect_matches_oracle(g, sparse, "even labels of 25 parts");
  expect_matches_oracle(g, make(7, std::vector<graph::vid>(
                                       static_cast<std::size_t>(g.num_vertices()), 6)),
                        "everything in the last of 7 parts");
}

}  // namespace
