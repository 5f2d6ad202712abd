#include "graph/ops.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/contract.hpp"

namespace sfp::graph {

csr contract(const csr& g, std::span<const vid> coarse_of, vid num_coarse) {
  SFP_REQUIRE(coarse_of.size() == static_cast<std::size_t>(g.num_vertices()),
              "coarse_of must map every vertex");
  SFP_REQUIRE(num_coarse > 0, "coarse graph needs at least one vertex");

  builder b(num_coarse);
  std::vector<weight> cvwgt(static_cast<std::size_t>(num_coarse), 0);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    const vid c = coarse_of[static_cast<std::size_t>(v)];
    SFP_REQUIRE(c >= 0 && c < num_coarse, "coarse id out of range");
    cvwgt[static_cast<std::size_t>(c)] += g.vertex_weight(v);
  }
  for (vid c = 0; c < num_coarse; ++c) {
    SFP_REQUIRE(cvwgt[static_cast<std::size_t>(c)] > 0,
                "every coarse vertex must receive at least one fine vertex");
    b.set_vertex_weight(c, cvwgt[static_cast<std::size_t>(c)]);
  }
  for (vid v = 0; v < g.num_vertices(); ++v) {
    const vid cv = coarse_of[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid cu = coarse_of[static_cast<std::size_t>(nbrs[i])];
      // Add each undirected edge once (v < nbr) to avoid double counting.
      if (cv != cu && v < nbrs[i]) b.add_edge(cv, cu, wgts[i]);
    }
  }
  // A disconnected coarse pair with no edges is legal; builder handles it.
  return b.build();
}

csr induced_subgraph(const csr& g, std::span<const vid> keep,
                     std::vector<vid>& old_of_new) {
  SFP_REQUIRE(!keep.empty(), "subgraph must keep at least one vertex");
  std::vector<vid> new_of_old(static_cast<std::size_t>(g.num_vertices()), -1);
  old_of_new.assign(keep.begin(), keep.end());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const vid v = keep[i];
    SFP_REQUIRE(v >= 0 && v < g.num_vertices(), "keep id out of range");
    SFP_REQUIRE(new_of_old[static_cast<std::size_t>(v)] == -1,
                "keep ids must be unique");
    new_of_old[static_cast<std::size_t>(v)] = static_cast<vid>(i);
  }

  builder b(static_cast<vid>(keep.size()));
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const vid v = keep[i];
    b.set_vertex_weight(static_cast<vid>(i), g.vertex_weight(v));
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const vid nu = new_of_old[static_cast<std::size_t>(nbrs[j])];
      if (nu >= 0 && static_cast<vid>(i) < nu)
        b.add_edge(static_cast<vid>(i), nu, wgts[j]);
    }
  }
  return b.build();
}

vid connected_components(const csr& g, std::vector<vid>& component_of) {
  const auto nv = static_cast<std::size_t>(g.num_vertices());
  component_of.assign(nv, -1);
  vid num_components = 0;
  std::vector<vid> stack;
  for (vid seed = 0; seed < g.num_vertices(); ++seed) {
    if (component_of[static_cast<std::size_t>(seed)] != -1) continue;
    stack.push_back(seed);
    component_of[static_cast<std::size_t>(seed)] = num_components;
    while (!stack.empty()) {
      const vid v = stack.back();
      stack.pop_back();
      for (const vid u : g.neighbors(v)) {
        if (component_of[static_cast<std::size_t>(u)] == -1) {
          component_of[static_cast<std::size_t>(u)] = num_components;
          stack.push_back(u);
        }
      }
    }
    ++num_components;
  }
  return num_components;
}

bool is_connected(const csr& g) {
  std::vector<vid> component_of;
  return connected_components(g, component_of) <= 1;
}

weight cut_weight(const csr& g, std::span<const vid> block_of) {
  SFP_REQUIRE(block_of.size() == static_cast<std::size_t>(g.num_vertices()),
              "block_of must label every vertex");
  weight cut = 0;
  for (vid v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (v < nbrs[i] && block_of[static_cast<std::size_t>(v)] !=
                             block_of[static_cast<std::size_t>(nbrs[i])])
        cut += wgts[i];
    }
  }
  return cut;
}

}  // namespace sfp::graph
