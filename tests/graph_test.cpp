// Unit and property tests for the CSR graph substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfp;
using namespace sfp::graph;

TEST(Builder, TriangleBasics) {
  builder b(3);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 3);
  b.add_edge(0, 2, 4);
  b.set_vertex_weight(2, 7);
  const csr g = b.build();
  g.validate();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.vertex_weight(0), 1);
  EXPECT_EQ(g.vertex_weight(2), 7);
  EXPECT_EQ(g.total_vertex_weight(), 9);
  EXPECT_EQ(g.degree(0), 2);
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<vid>(n0.begin(), n0.end()), (std::vector<vid>{1, 2}));
  const auto w0 = g.neighbor_weights(0);
  EXPECT_EQ(std::vector<weight>(w0.begin(), w0.end()),
            (std::vector<weight>{2, 4}));
}

TEST(Builder, MergesDuplicateEdges) {
  builder b(2);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 5);  // same undirected edge, reversed
  const csr g = b.build();
  g.validate();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.neighbor_weights(0)[0], 7);
}

TEST(Builder, RejectsBadInput) {
  builder b(2);
  EXPECT_THROW(b.add_edge(0, 0), contract_error);   // self loop
  EXPECT_THROW(b.add_edge(0, 2), contract_error);   // out of range
  EXPECT_THROW(b.add_edge(0, 1, 0), contract_error);  // non-positive weight
  EXPECT_THROW(b.set_vertex_weight(5, 1), contract_error);
  EXPECT_THROW(builder(0), contract_error);
}

TEST(Builder, IsolatedVerticesAllowed) {
  builder b(4);
  b.add_edge(0, 1);
  const csr g = b.build();
  g.validate();
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_FALSE(is_connected(g));
}

// ---- generators -------------------------------------------------------------

TEST(Generators, GridGraphCounts) {
  const csr g = grid_graph(4, 3);
  g.validate();
  EXPECT_EQ(g.num_vertices(), 12);
  // Edges: 3 rows * 3 horizontal + 4 cols * 2 vertical = 9 + 8 = 17.
  EXPECT_EQ(g.num_edges(), 17);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, GridGraphDegrees) {
  const csr g = grid_graph(3, 3);
  // Corners have degree 2, edges 3, center 4.
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.degree(4), 4);
}

TEST(Generators, Grid8Weights) {
  const csr g = grid_graph_8(3, 3, 8, 1);
  g.validate();
  // Center vertex (id 4) has 4 axis neighbours (weight 8) and 4 diagonal
  // (weight 1).
  EXPECT_EQ(g.degree(4), 8);
  weight axis = 0, diag = 0;
  const auto w = g.neighbor_weights(4);
  for (const weight ww : w) (ww == 8 ? axis : diag) += 1;
  EXPECT_EQ(axis, 4);
  EXPECT_EQ(diag, 4);
}

TEST(Generators, RingGraph) {
  const csr g = ring_graph(5);
  g.validate();
  EXPECT_EQ(g.num_edges(), 5);
  for (vid v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomConnectedGraphIsConnectedAndValid) {
  rng r(11);
  for (int trial = 0; trial < 5; ++trial) {
    const csr g = random_connected_graph(50, 100, 9, r);
    g.validate();
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.num_vertices(), 50);
    EXPECT_GE(g.num_edges(), 49);
  }
}

// ---- ops ---------------------------------------------------------------------

TEST(Ops, ContractGrid) {
  // Contract a 4x1 path {0,1,2,3} into pairs {0,1} -> 0 and {2,3} -> 1.
  const csr g = grid_graph(4, 1);
  const std::vector<vid> coarse_of{0, 0, 1, 1};
  const csr c = contract(g, coarse_of, 2);
  c.validate();
  EXPECT_EQ(c.num_vertices(), 2);
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_EQ(c.vertex_weight(0), 2);
  EXPECT_EQ(c.vertex_weight(1), 2);
  EXPECT_EQ(c.neighbor_weights(0)[0], 1);  // single cut edge weight 1
}

TEST(Ops, ContractMergesParallelEdges) {
  // Square 0-1-3-2-0; contract {0,1} and {2,3}: the two vertical edges
  // (0-2 and 1-3) merge into one coarse edge of weight 2.
  const csr g = grid_graph(2, 2);
  const std::vector<vid> coarse_of{0, 0, 1, 1};
  const csr c = contract(g, coarse_of, 2);
  c.validate();
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_EQ(c.neighbor_weights(0)[0], 2);
}

TEST(Ops, ContractPreservesTotalVertexWeight) {
  rng r(3);
  const csr g = random_connected_graph(40, 60, 5, r);
  std::vector<vid> coarse_of(40);
  for (vid v = 0; v < 40; ++v) coarse_of[static_cast<std::size_t>(v)] = v / 4;
  const csr c = contract(g, coarse_of, 10);
  c.validate();
  EXPECT_EQ(c.total_vertex_weight(), g.total_vertex_weight());
}

TEST(Ops, InducedSubgraph) {
  const csr g = grid_graph(3, 3);
  const std::vector<vid> keep{0, 1, 3, 4};  // top-left 2x2 block
  std::vector<vid> old_of_new;
  const csr s = induced_subgraph(g, keep, old_of_new);
  s.validate();
  EXPECT_EQ(s.num_vertices(), 4);
  EXPECT_EQ(s.num_edges(), 4);  // the 2x2 square
  EXPECT_EQ(old_of_new, keep);
}

TEST(Ops, ConnectedComponents) {
  builder b(5);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const csr g = b.build();
  std::vector<vid> comp;
  EXPECT_EQ(connected_components(g, comp), 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_NE(comp[4], comp[2]);
}

TEST(Ops, CutWeight) {
  const csr g = grid_graph(2, 2);
  // Vertical split {0,2} vs {1,3} cuts the two horizontal edges.
  const std::vector<vid> blocks{0, 1, 0, 1};
  EXPECT_EQ(cut_weight(g, blocks), 2);
  const std::vector<vid> all_same{0, 0, 0, 0};
  EXPECT_EQ(cut_weight(g, all_same), 0);
}

TEST(Ops, ContractRejectsBadMap) {
  const csr g = grid_graph(2, 2);
  const std::vector<vid> bad{0, 0, 0, 5};
  EXPECT_THROW(contract(g, bad, 2), contract_error);
  const std::vector<vid> empty_coarse{0, 0, 0, 0};
  EXPECT_THROW(contract(g, empty_coarse, 2), contract_error);  // part 1 empty
}

}  // namespace
