#include "partition/metrics.hpp"

#include <algorithm>
#include <span>

#include "graph/validate.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

namespace sfp::partition {

namespace {

/// Vertices listed part by part, ascending within each part: a stable
/// counting sort on the labels, O(K + nparts).
struct part_groups {
  std::vector<graph::vid> first;  ///< part q owns vertices[first[q], first[q+1])
  std::vector<graph::vid> vertices;

  std::span<const graph::vid> of(graph::vid q) const {
    const auto qs = static_cast<std::size_t>(q);
    return std::span<const graph::vid>(vertices).subspan(
        static_cast<std::size_t>(first[qs]),
        static_cast<std::size_t>(first[qs + 1] - first[qs]));
  }
};

part_groups group_by_part(const partition& p,
                          std::span<const std::int64_t> sizes) {
  part_groups out;
  out.first.resize(sizes.size() + 1);
  graph::vid at = 0;
  for (std::size_t q = 0; q < sizes.size(); ++q) {
    out.first[q] = at;
    at += static_cast<graph::vid>(sizes[q]);
  }
  out.first[sizes.size()] = at;
  out.vertices.resize(p.part_of.size());
  std::vector<graph::vid> next(out.first.begin(), out.first.end() - 1);
  for (std::size_t v = 0; v < p.part_of.size(); ++v) {
    graph::vid& slot = next[static_cast<std::size_t>(p.part_of[v])];
    out.vertices[static_cast<std::size_t>(slot++)] = static_cast<graph::vid>(v);
  }
  return out;
}

}  // namespace

metrics compute_metrics(const graph::csr& g, const partition& p) {
  validate(p, g);
  // The edgecut is read off the per-part volumes, which count every cut
  // edge once from each end; that needs the csr symmetry invariant.
  SFP_AUDIT_DIAG(graph::validate_csr(g));
  const auto nparts = static_cast<std::size_t>(p.num_parts);
  metrics m;
  m.num_parts = p.num_parts;
  m.elems_per_part = part_sizes(p);
  m.weight_per_part = part_weights(p, g);
  m.send_interfaces.assign(nparts, 0.0);
  m.send_weighted.assign(nparts, 0.0);
  m.num_peers.assign(nparts, 0);

  // One walk over each part's vertices. A remote part counts once per
  // vertex (send_interfaces) and once per part (num_peers); the two stamp
  // arrays remember the last vertex and the last part that counted it.
  // Volumes are integer sums, exact in int64 and converted to double once.
  const part_groups groups = group_by_part(p, m.elems_per_part);
  const std::span<const graph::vid> part_of = p.part_of;
  std::vector<graph::vid> counted_by_vertex(nparts, -1);
  std::vector<graph::vid> counted_by_part(nparts, -1);
  std::int64_t cut_entries = 0;
  std::int64_t total_interfaces = 0;
  graph::weight total_weighted = 0;
  for (graph::vid q = 0; q < p.num_parts; ++q) {
    const auto qs = static_cast<std::size_t>(q);
    std::int64_t interfaces = 0;
    graph::weight weighted = 0;
    int peers = 0;
    for (const graph::vid v : groups.of(q)) {
      const auto nbrs = g.neighbors(v);
      const auto wgts = g.neighbor_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const graph::vid pu = part_of[static_cast<std::size_t>(nbrs[i])];
        if (pu == q) continue;
        ++cut_entries;
        weighted += wgts[i];
        const auto us = static_cast<std::size_t>(pu);
        if (counted_by_vertex[us] == v) continue;
        counted_by_vertex[us] = v;
        ++interfaces;
        if (counted_by_part[us] == q) continue;
        counted_by_part[us] = q;
        ++peers;
      }
    }
    m.send_interfaces[qs] = static_cast<double>(interfaces);
    m.send_weighted[qs] = static_cast<double>(weighted);
    m.num_peers[qs] = peers;
    total_interfaces += interfaces;
    total_weighted += weighted;
  }
  m.edgecut_edges = cut_entries / 2;
  m.edgecut_weight = total_weighted / 2;
  m.tcv_interfaces = static_cast<double>(total_interfaces);
  m.tcv_weighted = static_cast<double>(total_weighted);
  m.lb_elems = sfp::load_balance(std::span<const std::int64_t>(m.elems_per_part));
  m.lb_weight =
      sfp::load_balance(std::span<const graph::weight>(m.weight_per_part));
  m.lb_comm = sfp::load_balance(std::span<const double>(m.send_interfaces));
  m.max_peers = *std::max_element(m.num_peers.begin(), m.num_peers.end());
  return m;
}

std::vector<std::vector<std::pair<int, double>>> comm_pattern(
    const graph::csr& g, const partition& p) {
  validate(p, g);
  const auto nparts = static_cast<std::size_t>(p.num_parts);
  const part_groups groups = group_by_part(p, part_sizes(p));
  const std::span<const graph::vid> part_of = p.part_of;
  // Per part, each peer gets a volume slot the first time it appears
  // (stamped with the part), and the peers are listed ascending at the end.
  std::vector<graph::vid> slot_owner(nparts, -1);
  std::vector<graph::weight> volume(nparts, 0);
  std::vector<graph::vid> peers;
  std::vector<std::vector<std::pair<int, double>>> out(nparts);
  for (graph::vid q = 0; q < p.num_parts; ++q) {
    const auto qs = static_cast<std::size_t>(q);
    peers.clear();
    for (const graph::vid v : groups.of(q)) {
      const auto nbrs = g.neighbors(v);
      const auto wgts = g.neighbor_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const graph::vid pu = part_of[static_cast<std::size_t>(nbrs[i])];
        if (pu == q) continue;
        const auto us = static_cast<std::size_t>(pu);
        if (slot_owner[us] != q) {
          slot_owner[us] = q;
          volume[us] = 0;
          peers.push_back(pu);
        }
        volume[us] += wgts[i];
      }
    }
    std::sort(peers.begin(), peers.end());
    out[qs].reserve(peers.size());
    for (const graph::vid pu : peers)
      out[qs].emplace_back(
          pu, static_cast<double>(volume[static_cast<std::size_t>(pu)]));
  }
  return out;
}

}  // namespace sfp::partition
