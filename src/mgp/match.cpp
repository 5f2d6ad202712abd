#include "mgp/match.hpp"

#include <algorithm>
#include <numeric>

#include "util/contract.hpp"

namespace sfp::mgp {

matching heavy_edge_matching(const graph::csr& g,
                             graph::weight max_vertex_weight, rng& r) {
  const graph::vid nv = g.num_vertices();
  SFP_REQUIRE(nv > 0, "cannot match an empty graph");

  std::vector<graph::vid> visit(static_cast<std::size_t>(nv));
  std::iota(visit.begin(), visit.end(), 0);
  // Fisher–Yates with the deterministic rng.
  for (std::size_t i = visit.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(r.below(i));
    std::swap(visit[i - 1], visit[j]);
  }

  std::vector<graph::vid> mate(static_cast<std::size_t>(nv), -1);
  for (const graph::vid v : visit) {
    if (mate[static_cast<std::size_t>(v)] != -1) continue;
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    graph::vid best = -1;
    graph::weight best_w = -1;
    graph::weight best_vw = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::vid u = nbrs[i];
      if (mate[static_cast<std::size_t>(u)] != -1) continue;
      if (max_vertex_weight > 0 &&
          g.vertex_weight(v) + g.vertex_weight(u) > max_vertex_weight)
        continue;
      const graph::weight uw = g.vertex_weight(u);
      if (wgts[i] > best_w || (wgts[i] == best_w && uw < best_vw)) {
        best = u;
        best_w = wgts[i];
        best_vw = uw;
      }
    }
    if (best != -1) {
      mate[static_cast<std::size_t>(v)] = best;
      mate[static_cast<std::size_t>(best)] = v;
    } else {
      mate[static_cast<std::size_t>(v)] = v;  // stays single
    }
  }

  matching m;
  m.coarse_of.assign(static_cast<std::size_t>(nv), -1);
  for (graph::vid v = 0; v < nv; ++v) {
    if (m.coarse_of[static_cast<std::size_t>(v)] != -1) continue;
    const graph::vid u = mate[static_cast<std::size_t>(v)];
    m.coarse_of[static_cast<std::size_t>(v)] = m.num_coarse;
    if (u != v) m.coarse_of[static_cast<std::size_t>(u)] = m.num_coarse;
    ++m.num_coarse;
  }
  return m;
}

}  // namespace sfp::mgp
