#include "graph/generators.hpp"

#include "util/contract.hpp"

namespace sfp::graph {

csr grid_graph(vid nx, vid ny) {
  SFP_REQUIRE(nx > 0 && ny > 0, "grid dimensions must be positive");
  builder b(nx * ny);
  const auto id = [nx](vid x, vid y) { return y * nx + x; };
  for (vid y = 0; y < ny; ++y) {
    for (vid x = 0; x < nx; ++x) {
      if (x + 1 < nx) b.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < ny) b.add_edge(id(x, y), id(x, y + 1));
    }
  }
  return b.build();
}

csr grid_graph_8(vid nx, vid ny, weight edge_weight, weight corner_weight) {
  SFP_REQUIRE(nx > 0 && ny > 0, "grid dimensions must be positive");
  builder b(nx * ny);
  const auto id = [nx](vid x, vid y) { return y * nx + x; };
  for (vid y = 0; y < ny; ++y) {
    for (vid x = 0; x < nx; ++x) {
      if (x + 1 < nx) b.add_edge(id(x, y), id(x + 1, y), edge_weight);
      if (y + 1 < ny) b.add_edge(id(x, y), id(x, y + 1), edge_weight);
      if (x + 1 < nx && y + 1 < ny)
        b.add_edge(id(x, y), id(x + 1, y + 1), corner_weight);
      if (x > 0 && y + 1 < ny)
        b.add_edge(id(x, y), id(x - 1, y + 1), corner_weight);
    }
  }
  return b.build();
}

csr ring_graph(vid n) {
  SFP_REQUIRE(n >= 3, "ring needs at least 3 vertices");
  builder b(n);
  for (vid v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

csr random_connected_graph(vid n, eid extra_edges, weight max_weight, rng& r) {
  SFP_REQUIRE(n >= 2, "need at least two vertices");
  SFP_REQUIRE(max_weight >= 1, "max_weight must be >= 1");
  builder b(n);
  for (vid v = 0; v + 1 < n; ++v)
    b.add_edge(v, v + 1, static_cast<weight>(1 + r.below(
                             static_cast<std::uint64_t>(max_weight))));
  for (eid e = 0; e < extra_edges; ++e) {
    const vid u = static_cast<vid>(r.below(static_cast<std::uint64_t>(n)));
    vid v = static_cast<vid>(r.below(static_cast<std::uint64_t>(n)));
    if (u == v) v = (v + 1) % n;
    b.add_edge(u, v, static_cast<weight>(
                         1 + r.below(static_cast<std::uint64_t>(max_weight))));
  }
  return b.build();
}

}  // namespace sfp::graph
