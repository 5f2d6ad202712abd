#include "graph/csr.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/contract.hpp"

namespace sfp::graph {

csr::csr(std::vector<eid> xadj, std::vector<vid> adjncy,
         std::vector<weight> vwgt, std::vector<weight> adjwgt)
    : xadj_(std::move(xadj)),
      adjncy_(std::move(adjncy)),
      vwgt_(std::move(vwgt)),
      adjwgt_(std::move(adjwgt)) {
  SFP_REQUIRE(!xadj_.empty(), "xadj must have nv+1 entries");
  SFP_REQUIRE(xadj_.size() == vwgt_.size() + 1, "xadj/vwgt size mismatch");
  SFP_REQUIRE(adjncy_.size() == adjwgt_.size(), "adjncy/adjwgt size mismatch");
  SFP_REQUIRE(static_cast<std::size_t>(xadj_.back()) == adjncy_.size(),
              "xadj terminator must equal adjacency length");
  total_vwgt_ = std::accumulate(vwgt_.begin(), vwgt_.end(), weight{0});
}

void csr::validate() const {
  const vid nv = num_vertices();
  SFP_REQUIRE(xadj_[0] == 0, "xadj[0] must be 0");
  for (vid v = 0; v < nv; ++v) {
    SFP_REQUIRE(xadj_[v] <= xadj_[v + 1], "xadj must be non-decreasing");
    SFP_REQUIRE(vwgt_[v] > 0, "vertex weights must be positive");
    const auto nbrs = neighbors(v);
    const auto wgts = neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      SFP_REQUIRE(nbrs[i] >= 0 && nbrs[i] < nv, "neighbor id out of range");
      SFP_REQUIRE(nbrs[i] != v, "self loops are not allowed");
      SFP_REQUIRE(wgts[i] > 0, "edge weights must be positive");
      if (i > 0)
        SFP_REQUIRE(nbrs[i - 1] < nbrs[i],
                    "adjacency must be sorted and duplicate free");
    }
  }
  // Symmetry: every (v, u, w) must have a matching (u, v, w).
  for (vid v = 0; v < nv; ++v) {
    const auto nbrs = neighbors(v);
    const auto wgts = neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid u = nbrs[i];
      const auto unbrs = neighbors(u);
      const auto it = std::lower_bound(unbrs.begin(), unbrs.end(), v);
      SFP_REQUIRE(it != unbrs.end() && *it == v,
                  "graph must be symmetric: missing reverse edge");
      const auto uw = neighbor_weights(u)[static_cast<std::size_t>(
          std::distance(unbrs.begin(), it))];
      SFP_REQUIRE(uw == wgts[i], "edge weights must be symmetric");
    }
  }
}

builder::builder(vid num_vertices)
    : num_vertices_(num_vertices), vwgt_(static_cast<std::size_t>(num_vertices), 1) {
  SFP_REQUIRE(num_vertices > 0, "graph needs at least one vertex");
}

void builder::add_edge(vid u, vid v, weight w) {
  SFP_REQUIRE(u >= 0 && u < num_vertices_, "edge endpoint u out of range");
  SFP_REQUIRE(v >= 0 && v < num_vertices_, "edge endpoint v out of range");
  SFP_REQUIRE(u != v, "self loops are not allowed");
  SFP_REQUIRE(w > 0, "edge weight must be positive");
  if (u > v) std::swap(u, v);
  edges_.push_back({{u, v}, w});
}

void builder::set_vertex_weight(vid v, weight w) {
  SFP_REQUIRE(v >= 0 && v < num_vertices_, "vertex id out of range");
  SFP_REQUIRE(w > 0, "vertex weight must be positive");
  vwgt_[static_cast<std::size_t>(v)] = w;
}

csr builder::build() {
  // Merge duplicate undirected edges by summing weights.
  std::sort(edges_.begin(), edges_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::pair<vid, vid>, weight>> merged;
  merged.reserve(edges_.size());
  for (const auto& e : edges_) {
    if (!merged.empty() && merged.back().first == e.first)
      merged.back().second += e.second;
    else
      merged.push_back(e);
  }

  const auto nv = static_cast<std::size_t>(num_vertices_);
  std::vector<eid> xadj(nv + 1, 0);
  for (const auto& e : merged) {
    ++xadj[static_cast<std::size_t>(e.first.first) + 1];
    ++xadj[static_cast<std::size_t>(e.first.second) + 1];
  }
  for (std::size_t v = 0; v < nv; ++v) xadj[v + 1] += xadj[v];

  std::vector<vid> adjncy(static_cast<std::size_t>(xadj[nv]));
  std::vector<weight> adjwgt(adjncy.size());
  std::vector<eid> cursor(xadj.begin(), xadj.end() - 1);
  for (const auto& e : merged) {
    const auto [u, v] = e.first;
    adjncy[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)])] = v;
    adjwgt[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] =
        e.second;
    adjncy[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)])] = u;
    adjwgt[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] =
        e.second;
  }
  // Edges were inserted in sorted (u,v) order, so each vertex's adjacency is
  // already sorted: u's list receives v's in increasing v, and v's list
  // receives u's in increasing u.
  edges_.clear();
  return csr(std::move(xadj), std::move(adjncy), std::move(vwgt_),
             std::move(adjwgt));
}

}  // namespace sfp::graph
