#include "mgp/partitioner.hpp"

#include "mgp/bisect.hpp"
#include "mgp/kway.hpp"
#include "util/contract.hpp"

namespace sfp::mgp {

const char* method_name(method m) {
  switch (m) {
    case method::recursive_bisection: return "RB";
    case method::kway: return "KWAY";
    case method::kway_volume: return "TV";
  }
  return "?";
}

partition::partition partition_graph(const graph::csr& g, int nparts,
                                     const options& opt) {
  SFP_REQUIRE(nparts >= 1, "need at least one part");
  SFP_REQUIRE(nparts <= g.num_vertices(), "more parts than vertices");
  rng r(opt.seed);
  const auto finish = [&](partition::partition p) {
    // Audit tier: whatever refinement did on the way back up, the result
    // must still label every vertex with an in-range part.
#if SFP_AUDIT_ENABLED
    partition::validate(p, g);  // throws contract_error on violation
    SFP_AUDIT(partition::all_parts_nonempty(p),
              "multilevel refinement left an empty part");
#endif
    return p;
  };
  switch (opt.algo) {
    case method::recursive_bisection:
      return finish(recursive_bisection(g, nparts, r));
    case method::kway:
      return finish(
          kway_partition(g, nparts, kway_objective::edgecut, r));
    case method::kway_volume:
      return finish(
          kway_partition(g, nparts, kway_objective::total_volume, r));
  }
  SFP_REQUIRE(false, "invalid method");
  return {};
}

std::vector<method_result> run_all_methods(const graph::csr& g, int nparts,
                                           const options& opt) {
  std::vector<method_result> out;
  for (const method m : {method::recursive_bisection, method::kway,
                         method::kway_volume}) {
    options o = opt;
    o.algo = m;
    out.push_back({m, partition_graph(g, nparts, o)});
  }
  return out;
}

}  // namespace sfp::mgp
