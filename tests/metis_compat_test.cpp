// Tests for the METIS-4-style C API facade.

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mgp/metis_compat.hpp"
#include "util/contract.hpp"

namespace {

using namespace sfp;
using namespace sfp::mgp::compat;

/// CSR arrays in the METIS convention, extracted from our graph type.
struct metis_arrays {
  idxtype nvtxs;
  std::vector<idxtype> xadj, adjncy, vwgt, adjwgt;
};

metis_arrays to_metis(const graph::csr& g) {
  metis_arrays m;
  m.nvtxs = g.num_vertices();
  m.xadj.assign(g.xadj().begin(), g.xadj().end());
  m.adjncy.assign(g.adjncy().begin(), g.adjncy().end());
  m.vwgt.assign(g.vwgt().begin(), g.vwgt().end());
  m.adjwgt.assign(g.adjwgt().begin(), g.adjwgt().end());
  return m;
}

TEST(MetisCompat, RecursivePartitionsGrid) {
  const auto g = graph::grid_graph(8, 8);
  const auto m = to_metis(g);
  const int nparts = 4, wgtflag = 0, numflag = 0;
  const int options[5] = {0, 0, 0, 0, 0};
  int edgecut = -1;
  std::vector<idxtype> part(static_cast<std::size_t>(m.nvtxs), -1);
  part_graph_recursive(&m.nvtxs, m.xadj.data(), m.adjncy.data(), nullptr,
                       nullptr, &wgtflag, &numflag, &nparts, options,
                       &edgecut, part.data());
  // Valid labels, all parts present, sane cut.
  std::vector<int> counts(4, 0);
  for (const idxtype p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 4);
    ++counts[static_cast<std::size_t>(p)];
  }
  for (const int c : counts) EXPECT_GE(c, 14);  // 64/4 = 16 ideal
  EXPECT_GT(edgecut, 0);
  EXPECT_LT(edgecut, 40);  // random would cut ~84 of 112 edges
}

TEST(MetisCompat, KwayHonorsWeights) {
  // Two heavy vertices must not land in the same part when weights are on.
  graph::builder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.set_vertex_weight(0, 100);
  b.set_vertex_weight(3, 100);
  const auto g = b.build();
  const auto m = to_metis(g);
  const int nparts = 2, wgtflag = kBothWeights, numflag = 0;
  int edgecut = -1;
  std::vector<idxtype> part(4, -1);
  part_graph_kway(&m.nvtxs, m.xadj.data(), m.adjncy.data(), m.vwgt.data(),
                  m.adjwgt.data(), &wgtflag, &numflag, &nparts, nullptr,
                  &edgecut, part.data());
  EXPECT_NE(part[0], part[3]);
}

TEST(MetisCompat, VKwayReportsVolume) {
  const mesh::cubed_sphere mesh(4);
  const auto g = mesh.dual_graph();
  const auto m = to_metis(g);
  const int nparts = 12, wgtflag = kEdgeWeights, numflag = 0;
  int volume = -1;
  std::vector<idxtype> part(static_cast<std::size_t>(m.nvtxs), -1);
  part_graph_vkway(&m.nvtxs, m.xadj.data(), m.adjncy.data(), nullptr,
                   m.adjwgt.data(), &wgtflag, &numflag, &nparts, nullptr,
                   &volume, part.data());
  EXPECT_GT(volume, 0);
  EXPECT_LT(volume, m.nvtxs * 8);  // bounded by total interface capacity
}

TEST(MetisCompat, SeedViaOptions) {
  const auto g = graph::grid_graph(6, 6);
  const auto m = to_metis(g);
  const int nparts = 3, wgtflag = 0, numflag = 0;
  int cut1 = 0, cut2 = 0, cut3 = 0;
  std::vector<idxtype> p1(36), p2(36), p3(36);
  const int opts_a[5] = {1, 12345, 0, 0, 0};
  const int opts_b[5] = {1, 12345, 0, 0, 0};
  const int opts_c[5] = {1, 99999, 0, 0, 0};
  part_graph_kway(&m.nvtxs, m.xadj.data(), m.adjncy.data(), nullptr, nullptr,
                  &wgtflag, &numflag, &nparts, opts_a, &cut1, p1.data());
  part_graph_kway(&m.nvtxs, m.xadj.data(), m.adjncy.data(), nullptr, nullptr,
                  &wgtflag, &numflag, &nparts, opts_b, &cut2, p2.data());
  part_graph_kway(&m.nvtxs, m.xadj.data(), m.adjncy.data(), nullptr, nullptr,
                  &wgtflag, &numflag, &nparts, opts_c, &cut3, p3.data());
  EXPECT_EQ(p1, p2);  // same seed, same result
  EXPECT_EQ(cut1, cut2);
}

TEST(MetisCompat, RejectsFortranNumbering) {
  const auto g = graph::grid_graph(2, 2);
  const auto m = to_metis(g);
  const int nparts = 2, wgtflag = 0, numflag = 1;
  int edgecut = 0;
  std::vector<idxtype> part(4);
  EXPECT_THROW(part_graph_kway(&m.nvtxs, m.xadj.data(), m.adjncy.data(),
                               nullptr, nullptr, &wgtflag, &numflag, &nparts,
                               nullptr, &edgecut, part.data()),
               contract_error);
}

TEST(MetisCompat, RejectsNullWeightArraysWhenRequested) {
  const auto g = graph::grid_graph(2, 2);
  const auto m = to_metis(g);
  const int nparts = 2, wgtflag = kVertexWeights, numflag = 0;
  int edgecut = 0;
  std::vector<idxtype> part(4);
  EXPECT_THROW(part_graph_kway(&m.nvtxs, m.xadj.data(), m.adjncy.data(),
                               nullptr, nullptr, &wgtflag, &numflag, &nparts,
                               nullptr, &edgecut, part.data()),
               contract_error);
}

}  // namespace
