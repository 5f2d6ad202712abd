#pragma once
// Test oracle: the hash-map topology builders the library used before its
// cubed-sphere topology became closed-form. They derive every incidence
// from the mesh's integer lattice corner points alone — corner identity by
// packed key, edge identity by the packed key pair — so they are an
// independent check on the arithmetic in mesh::cubed_sphere, seam::assembly
// and seam::rank_exchange_plan. Test-only; nothing here is fast.

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "mesh/cubed_sphere.hpp"
#include "partition/partition.hpp"
#include "seam/assembly.hpp"

namespace sfp::oracle {

/// One 64-bit key per lattice point (coordinates biased into 21 bits each;
/// enough for Ne < 2^19). Keys order like the points, lexicographically.
inline std::uint64_t pack(mesh::ivec3 p) {
  constexpr std::int64_t bias = 1 << 20;
  return (static_cast<std::uint64_t>(p.x + bias) << 42) |
         (static_cast<std::uint64_t>(p.y + bias) << 21) |
         static_cast<std::uint64_t>(p.z + bias);
}

struct key_pair_hash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& p) const {
    std::uint64_t h = p.first * 0x9e3779b97f4a7c15ull;
    h ^= p.second + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

/// Every topology query of `mesh`, tabulated by hashing its corner points.
class legacy_topology {
 public:
  explicit legacy_topology(const mesh::cubed_sphere& m) : m_(m) {
    const int nelem = m.num_elements();
    edge_nbr_.assign(static_cast<std::size_t>(nelem), {-1, -1, -1, -1});
    edge_links_.assign(static_cast<std::size_t>(nelem), {});
    corner_nbr_.assign(static_cast<std::size_t>(nelem), {});

    // Pass 1: corner incidences.
    for (int id = 0; id < nelem; ++id) {
      const auto pts = m.corner_points(id);
      for (int c = 0; c < 4; ++c)
        corners_[pack(pts[static_cast<std::size_t>(c)])].push_back({id, c});
    }

    // Pass 2: edge incidences -> edge neighbours + links. Local edge e joins
    // corners e and (e+1)%4.
    std::unordered_map<std::pair<std::uint64_t, std::uint64_t>,
                       std::vector<std::pair<int, int>>, key_pair_hash>
        edge_map;
    for (int id = 0; id < nelem; ++id) {
      const auto pts = m.corner_points(id);
      for (int e = 0; e < 4; ++e) {
        std::uint64_t a = pack(pts[static_cast<std::size_t>(e)]);
        std::uint64_t b = pack(pts[static_cast<std::size_t>((e + 1) % 4)]);
        if (a > b) std::swap(a, b);
        edge_map[{a, b}].push_back({id, e});
      }
    }
    for (const auto& [key, incidences] : edge_map) {
      (void)key;
      SFP_REQUIRE(incidences.size() == 2, "every edge joins two elements");
      const auto [ea, eb] = std::pair(incidences[0], incidences[1]);
      const auto pts_a = m.corner_points(ea.first);
      const auto pts_b = m.corner_points(eb.first);
      const bool reversed = !(pts_a[static_cast<std::size_t>(ea.second)] ==
                              pts_b[static_cast<std::size_t>(eb.second)]);
      at(edge_nbr_, ea.first)[static_cast<std::size_t>(ea.second)] = eb.first;
      at(edge_nbr_, eb.first)[static_cast<std::size_t>(eb.second)] = ea.first;
      at(edge_links_, ea.first)[static_cast<std::size_t>(ea.second)] = {
          eb.first, eb.second, reversed};
      at(edge_links_, eb.first)[static_cast<std::size_t>(eb.second)] = {
          ea.first, ea.second, reversed};
    }

    // Pass 3: corner-only neighbours = co-incident at a corner point but
    // not an edge neighbour.
    for (int id = 0; id < nelem; ++id) {
      const auto& enbrs = at(edge_nbr_, id);
      auto& cnbrs = at(corner_nbr_, id);
      const auto pts = m.corner_points(id);
      for (int c = 0; c < 4; ++c)
        for (const auto& [other, oc] :
             corners_.at(pack(pts[static_cast<std::size_t>(c)]))) {
          (void)oc;
          if (other == id) continue;
          if (std::find(enbrs.begin(), enbrs.end(), other) != enbrs.end())
            continue;
          cnbrs.push_back(other);
        }
      std::sort(cnbrs.begin(), cnbrs.end());
      cnbrs.erase(std::unique(cnbrs.begin(), cnbrs.end()), cnbrs.end());
    }
  }

  int edge_neighbor(int id, int e) const {
    return at(edge_nbr_, id)[static_cast<std::size_t>(e)];
  }
  mesh::edge_link edge_link_of(int id, int e) const {
    return at(edge_links_, id)[static_cast<std::size_t>(e)];
  }
  const std::vector<int>& corner_neighbors(int id) const {
    return at(corner_nbr_, id);
  }
  std::vector<std::pair<int, int>> corner_links(int id, int c) const {
    std::vector<std::pair<int, int>> out;
    for (const auto& link : incidences(id, c))
      if (link.first != id) out.push_back(link);
    return out;
  }
  bool corner_is_cube_vertex(int id, int c) const {
    return incidences(id, c).size() == 3;
  }

  /// The dual graph as the library built it, through graph::builder.
  graph::csr dual_graph(graph::weight edge_weight, graph::weight corner_weight,
                        bool include_corners) const {
    graph::builder b(m_.num_elements());
    for (int id = 0; id < m_.num_elements(); ++id) {
      for (int e = 0; e < 4; ++e) {
        const int nbr = edge_neighbor(id, e);
        if (id < nbr) b.add_edge(id, nbr, edge_weight);
      }
      if (include_corners)
        for (const int nbr : corner_neighbors(id))
          if (id < nbr) b.add_edge(id, nbr, corner_weight);
    }
    return b.build();
  }

 private:
  template <typename T>
  static T& at(std::vector<T>& v, int id) {
    return v[static_cast<std::size_t>(id)];
  }
  template <typename T>
  static const T& at(const std::vector<T>& v, int id) {
    return v[static_cast<std::size_t>(id)];
  }
  const std::vector<std::pair<int, int>>& incidences(int id, int c) const {
    return corners_.at(pack(m_.corner_points(id)[static_cast<std::size_t>(c)]));
  }

  const mesh::cubed_sphere& m_;
  std::vector<std::array<int, 4>> edge_nbr_;
  std::vector<std::array<mesh::edge_link, 4>> edge_links_;
  std::vector<std::vector<int>> corner_nbr_;
  std::unordered_map<std::uint64_t, std::vector<std::pair<int, int>>> corners_;
};

/// The global dof numbering seam::assembly built with hash maps: interior
/// nodes element by element, then one dof per corner point in first-touch
/// order, then np-2 dofs per edge oriented from the smaller packed key.
struct legacy_dofs {
  std::vector<std::int64_t> dof;  ///< per local node, assembly's layout
  std::int64_t num_dofs = 0;
  std::vector<int> multiplicity;  ///< per dof

  legacy_dofs(const mesh::cubed_sphere& m, int np) {
    const auto npu = static_cast<std::size_t>(np);
    const auto flat = [npu](int e, int i, int j) {
      return (static_cast<std::size_t>(e) * npu + static_cast<std::size_t>(j)) *
                 npu +
             static_cast<std::size_t>(i);
    };
    const auto edge_node = [np](int e, int k) -> std::pair<int, int> {
      switch (e) {
        case 0: return {k, 0};
        case 1: return {np - 1, k};
        case 2: return {np - 1 - k, np - 1};
        default: return {0, np - 1 - k};
      }
    };
    const int nelem = m.num_elements();
    dof.assign(static_cast<std::size_t>(nelem) * npu * npu, -1);
    std::int64_t next = 0;
    for (int e = 0; e < nelem; ++e)
      for (int j = 1; j + 1 < np; ++j)
        for (int i = 1; i + 1 < np; ++i) dof[flat(e, i, j)] = next++;

    std::unordered_map<std::uint64_t, std::int64_t> corner_dof;
    constexpr int corner_ij[4][2] = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
    for (int e = 0; e < nelem; ++e) {
      const auto pts = m.corner_points(e);
      for (int c = 0; c < 4; ++c) {
        const auto [it, inserted] =
            corner_dof.try_emplace(pack(pts[static_cast<std::size_t>(c)]), next);
        if (inserted) ++next;
        dof[flat(e, corner_ij[c][0] * (np - 1), corner_ij[c][1] * (np - 1))] =
            it->second;
      }
    }

    std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t,
                       key_pair_hash>
        edge_base;
    for (int e = 0; e < nelem; ++e) {
      const auto pts = m.corner_points(e);
      for (int le = 0; le < 4; ++le) {
        const std::uint64_t a = pack(pts[static_cast<std::size_t>(le)]);
        const std::uint64_t b = pack(pts[static_cast<std::size_t>((le + 1) % 4)]);
        auto [it, inserted] = edge_base.try_emplace(std::minmax(a, b), next);
        if (inserted) next += np - 2;
        for (int k = 1; k + 1 < np; ++k) {
          const int canon = (a < b) ? k : np - 1 - k;
          const auto [i, j] = edge_node(le, k);
          dof[flat(e, i, j)] = it->second + (canon - 1);
        }
      }
    }
    num_dofs = next;
    multiplicity.assign(static_cast<std::size_t>(num_dofs), 0);
    for (const std::int64_t d : dof) ++multiplicity[static_cast<std::size_t>(d)];
  }
};

/// One rank's exchange plan in the full-node layout the library planned
/// with before its plans became rank-built and boundary-only: every node
/// of the rank-local layout maps to a local dof, interior ones included,
/// and local dofs ascend in global order.
struct legacy_rank_plan {
  std::vector<int> owned;  ///< element ids, ascending; slot l is owned[l]
  std::vector<std::int32_t> node_dof_local;  ///< per rank-local node
  std::vector<std::int64_t> touched_dofs;    ///< global, ascending
  std::vector<double> inv_multiplicity;      ///< per touched dof
  struct peer_exchange {
    int rank;
    std::vector<std::int32_t> dof_local;  ///< ascending global order
  };
  std::vector<peer_exchange> peers;  ///< ascending by rank
};

/// The global exchange-plan build the library used before each rank
/// planned its own halo, with a hash map of rank lists per dof and a hash
/// map from global to local dof per rank. One plan per part.
inline std::vector<legacy_rank_plan> legacy_exchange_plan(
    const seam::assembly& dofs, const partition::partition& part) {
  const int np = dofs.np();
  const int nelem = dofs.num_elements();
  std::vector<legacy_rank_plan> plan(static_cast<std::size_t>(part.num_parts));
  for (int e = 0; e < nelem; ++e)
    plan[static_cast<std::size_t>(part.part_of[static_cast<std::size_t>(e)])]
        .owned.push_back(e);

  std::unordered_map<std::int64_t, std::vector<int>> dof_ranks;
  for (int e = 0; e < nelem; ++e) {
    const int p = part.part_of[static_cast<std::size_t>(e)];
    for (int j = 0; j < np; ++j)
      for (int i = 0; i < np; ++i) {
        auto& ranks = dof_ranks[dofs.dof_of(e, i, j)];
        if (std::find(ranks.begin(), ranks.end(), p) == ranks.end())
          ranks.push_back(p);
      }
  }

  for (std::size_t self = 0; self < plan.size(); ++self) {
    legacy_rank_plan& rp = plan[self];
    for (const int e : rp.owned)
      for (int j = 0; j < np; ++j)
        for (int i = 0; i < np; ++i)
          rp.touched_dofs.push_back(dofs.dof_of(e, i, j));
    std::sort(rp.touched_dofs.begin(), rp.touched_dofs.end());
    rp.touched_dofs.erase(
        std::unique(rp.touched_dofs.begin(), rp.touched_dofs.end()),
        rp.touched_dofs.end());

    std::unordered_map<std::int64_t, std::int32_t> local_of;
    for (std::size_t k = 0; k < rp.touched_dofs.size(); ++k)
      local_of[rp.touched_dofs[k]] = static_cast<std::int32_t>(k);

    rp.inv_multiplicity.resize(rp.touched_dofs.size());
    for (std::size_t k = 0; k < rp.touched_dofs.size(); ++k)
      rp.inv_multiplicity[k] = 1.0 / dofs.multiplicity(rp.touched_dofs[k]);

    for (const int e : rp.owned)
      for (int j = 0; j < np; ++j)
        for (int i = 0; i < np; ++i)
          rp.node_dof_local.push_back(local_of.at(dofs.dof_of(e, i, j)));

    std::map<int, std::vector<std::int32_t>> by_peer;
    for (std::size_t k = 0; k < rp.touched_dofs.size(); ++k)
      for (const int q : dof_ranks.at(rp.touched_dofs[k]))
        if (q != static_cast<int>(self))
          by_peer[q].push_back(static_cast<std::int32_t>(k));
    for (auto& [q, list] : by_peer) rp.peers.push_back({q, std::move(list)});
  }
  return plan;
}

}  // namespace sfp::oracle
