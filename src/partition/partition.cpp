#include "partition/partition.hpp"

#include "util/contract.hpp"

namespace sfp::partition {

void validate(const partition& p, const graph::csr& g) {
  SFP_REQUIRE(p.num_parts >= 1, "partition needs at least one part");
  SFP_REQUIRE(p.part_of.size() == static_cast<std::size_t>(g.num_vertices()),
              "partition must label every vertex");
  for (const graph::vid label : p.part_of) {
    SFP_REQUIRE(label >= 0 && label < p.num_parts,
                "part label out of range");
  }
}

std::vector<std::int64_t> part_sizes(const partition& p) {
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(p.num_parts), 0);
  for (const graph::vid label : p.part_of)
    ++sizes[static_cast<std::size_t>(label)];
  return sizes;
}

std::vector<graph::weight> part_weights(const partition& p,
                                        const graph::csr& g) {
  std::vector<graph::weight> weights(static_cast<std::size_t>(p.num_parts), 0);
  for (graph::vid v = 0; v < g.num_vertices(); ++v)
    weights[static_cast<std::size_t>(p.part_of[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  return weights;
}

bool all_parts_nonempty(const partition& p) {
  for (const std::int64_t s : part_sizes(p))
    if (s == 0) return false;
  return true;
}

}  // namespace sfp::partition
