#include "mgp/metis_compat.hpp"

#include <cmath>

#include "graph/csr.hpp"
#include "mgp/options.hpp"
#include "mgp/partitioner.hpp"
#include "partition/metrics.hpp"
#include "util/contract.hpp"

namespace sfp::mgp::compat {

namespace {

graph::csr build_graph(const idxtype* nvtxs, const idxtype* xadj,
                       const idxtype* adjncy, const idxtype* vwgt,
                       const idxtype* adjwgt, int wgtflag) {
  SFP_REQUIRE(nvtxs != nullptr && xadj != nullptr, "null graph arrays");
  const idxtype n = *nvtxs;
  SFP_REQUIRE(n > 0, "graph must have vertices");
  const bool use_vwgt = (wgtflag & kVertexWeights) != 0;
  const bool use_adjwgt = (wgtflag & kEdgeWeights) != 0;
  SFP_REQUIRE(!use_vwgt || vwgt != nullptr, "wgtflag requests vwgt but null");
  SFP_REQUIRE(!use_adjwgt || adjwgt != nullptr,
              "wgtflag requests adjwgt but null");

  graph::builder b(n);
  if (use_vwgt) {
    for (idxtype v = 0; v < n; ++v)
      b.set_vertex_weight(v, vwgt[static_cast<std::size_t>(v)]);
  }
  for (idxtype v = 0; v < n; ++v) {
    for (idxtype e = xadj[static_cast<std::size_t>(v)];
         e < xadj[static_cast<std::size_t>(v) + 1]; ++e) {
      const idxtype u = adjncy[static_cast<std::size_t>(e)];
      SFP_REQUIRE(u >= 0 && u < n, "adjacency entry out of range");
      if (v < u) {
        const graph::weight w =
            use_adjwgt ? adjwgt[static_cast<std::size_t>(e)] : 1;
        b.add_edge(v, u, w);
      }
    }
  }
  return b.build();
}

options options_from(const int* opts, method algo) {
  options o;
  o.algo = algo;
  if (opts != nullptr && opts[0] != 0) o.seed = static_cast<std::uint64_t>(opts[1]);
  return o;
}

void run(const idxtype* nvtxs, const idxtype* xadj, const idxtype* adjncy,
         const idxtype* vwgt, const idxtype* adjwgt, const int* wgtflag,
         const int* numflag, const int* nparts, const int* opts, method algo,
         int* objective_out, idxtype* part, bool volume_objective_report) {
  SFP_REQUIRE(numflag == nullptr || *numflag == 0,
              "only C-style numbering (numflag=0) is supported");
  SFP_REQUIRE(nparts != nullptr && *nparts >= 1, "nparts must be >= 1");
  SFP_REQUIRE(part != nullptr, "part output array is null");
  const int wf = wgtflag ? *wgtflag : kNoWeights;
  const graph::csr g = build_graph(nvtxs, xadj, adjncy, vwgt, adjwgt, wf);
  const auto p = partition_graph(g, *nparts, options_from(opts, algo));
  for (std::size_t v = 0; v < p.part_of.size(); ++v)
    part[v] = p.part_of[v];
  if (objective_out != nullptr) {
    const auto m = partition::compute_metrics(g, p);
    *objective_out = volume_objective_report
                         ? static_cast<int>(m.tcv_interfaces)
                         : static_cast<int>(m.edgecut_weight);
  }
}

}  // namespace

void part_graph_recursive(const idxtype* nvtxs, const idxtype* xadj,
                          const idxtype* adjncy, const idxtype* vwgt,
                          const idxtype* adjwgt, const int* wgtflag,
                          const int* numflag, const int* nparts,
                          const int* options_in, int* edgecut, idxtype* part) {
  run(nvtxs, xadj, adjncy, vwgt, adjwgt, wgtflag, numflag, nparts, options_in,
      method::recursive_bisection, edgecut, part, false);
}

void part_graph_kway(const idxtype* nvtxs, const idxtype* xadj,
                     const idxtype* adjncy, const idxtype* vwgt,
                     const idxtype* adjwgt, const int* wgtflag,
                     const int* numflag, const int* nparts,
                     const int* options_in, int* edgecut, idxtype* part) {
  run(nvtxs, xadj, adjncy, vwgt, adjwgt, wgtflag, numflag, nparts, options_in,
      method::kway, edgecut, part, false);
}

void part_graph_vkway(const idxtype* nvtxs, const idxtype* xadj,
                      const idxtype* adjncy, const idxtype* vwgt,
                      const idxtype* adjwgt, const int* wgtflag,
                      const int* numflag, const int* nparts,
                      const int* options_in, int* volume, idxtype* part) {
  run(nvtxs, xadj, adjncy, vwgt, adjwgt, wgtflag, numflag, nparts, options_in,
      method::kway_volume, volume, part, true);
}

}  // namespace sfp::mgp::compat
