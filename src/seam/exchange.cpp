#include "seam/exchange.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace sfp::seam {

namespace {

/// Index of boundary node (i, j) — i or j in {0, np−1} — in the ascending
/// slot_boundary order: the first row, two nodes per middle row, the last
/// row.
int boundary_index(int i, int j, int np) {
  if (j == 0) return i;
  if (j == np - 1) return 3 * np - 4 + i;
  return np + 2 * (j - 1) + (i == 0 ? 0 : 1);
}

/// Where an element's corners and edges sit among its boundary nodes, for
/// one np: the k-th node along local edge e (assembly's edge_node order,
/// so corner e is k = 0) is boundary node edge[e·np + k], and boundary node
/// b is node (i, j) = ij[b] of the element.
struct boundary_layout {
  int np;
  std::vector<int> edge;
  std::vector<std::pair<int, int>> ij;

  explicit boundary_layout(int n)
      : np(n),
        edge(static_cast<std::size_t>(4 * n)),
        ij(static_cast<std::size_t>(4 * (n - 1))) {
    for (int e = 0; e < 4; ++e)
      for (int k = 0; k < np; ++k) {
        const auto [i, j] = edge_node(e, k, np);
        const int b = boundary_index(i, j, np);
        edge[static_cast<std::size_t>(e * np + k)] = b;
        ij[static_cast<std::size_t>(b)] = {i, j};
      }
  }
  std::size_t along(int e, int k) const {
    return static_cast<std::size_t>(edge[static_cast<std::size_t>(e * np + k)]);
  }
  std::size_t corner(int c) const { return along(c, 0); }
};

}  // namespace

rank_exchange_plan rank_exchange_plan::build(const assembly& dofs,
                                             const partition::partition& part,
                                             int rank) {
  const mesh::cubed_sphere& mesh = dofs.mesh();
  const int np = dofs.np();
  SFP_REQUIRE(part.part_of.size() ==
                  static_cast<std::size_t>(dofs.num_elements()),
              "partition must label every element");
  SFP_REQUIRE(rank >= 0 && rank < part.num_parts, "rank out of range");
  const auto label = [&](int e) {
    return part.part_of[static_cast<std::size_t>(e)];
  };

  rank_exchange_plan rp;
  rp.np = np;
  std::size_t owned = 0;
  for (const graph::vid p : part.part_of) {
    SFP_REQUIRE(p >= 0 && p < part.num_parts, "part label out of range");
    owned += p == rank ? 1 : 0;
  }
  SFP_REQUIRE(owned > 0, "every rank must own an element");
  rp.owned.reserve(owned);
  for (int e = 0; e < dofs.num_elements(); ++e)
    if (label(e) == rank) rp.owned.push_back(e);

  const boundary_layout at(np);
  const std::size_t nb = at.ij.size();
  rp.slot_boundary.reserve(nb);
  for (const auto& [i, j] : at.ij) rp.slot_boundary.push_back(j * np + i);
  rp.boundary_dof.resize(rp.owned.size() * nb);
  const auto slot_dofs = [&](std::size_t l) {
    return std::span<std::int32_t>(&rp.boundary_dof[l * nb], nb);
  };
  // The local dofs of owned element x < owned[l]. At most owned[l] − x − 1
  // owned ids lie between them, so x's slot is at least l − (owned[l] − x):
  // exactly that inside a run of consecutive owned ids.
  const auto lower_dofs = [&](int x, std::size_t l) {
    const auto gap = static_cast<std::size_t>(rp.owned[l] - x);
    std::size_t slot = l >= gap ? l - gap : 0;
    if (rp.owned[slot] != x)
      slot = static_cast<std::size_t>(
          std::lower_bound(rp.owned.begin() + static_cast<std::ptrdiff_t>(slot),
                           rp.owned.begin() + static_cast<std::ptrdiff_t>(l), x) -
          rp.owned.begin());
    return slot_dofs(slot);
  };
  const auto peer_list = [&](int q) -> std::vector<std::int32_t>& {
    auto it = std::ranges::lower_bound(rp.peers, q, {}, &peer_exchange::rank);
    if (it == rp.peers.end() || it->rank != q) it = rp.peers.insert(it, {q, {}});
    return it->dof_local;
  };

  // Number the boundary nodes in first-touch order, slot by slot: each
  // slot's new corners, then its new edges. A corner or edge some lower
  // owned element also holds copies that element's local dofs, mirrored
  // where the edge link is reversed. A new dof joins the list of every
  // distinct remote label among its copies.
  std::int32_t next = 0;
  for (std::size_t l = 0; l < rp.owned.size(); ++l) {
    const int e = rp.owned[l];
    const std::span<std::int32_t> mine = slot_dofs(l);
    for (int c = 0; c < 4; ++c) {
      // The lowest-id owned element around the corner point below e holds
      // it already; else it is new, and shared with every remote label.
      const mesh::corner_incidences around = mesh.corner_links(e, c);
      std::int32_t& dof = mine[at.corner(c)];
      const auto lower = std::ranges::find_if(around, [&](const auto& x) {
        return x.first < e && label(x.first) == rank;
      });
      if (lower != around.end()) {
        dof = lower_dofs(lower->first, l)[at.corner(lower->second)];
        continue;
      }
      dof = next++;
      mesh::inline_list<int, 3> remote;
      for (const auto& [x, xc] : around) {
        const int q = label(x);
        if (q != rank && std::ranges::find(remote, q) == remote.end()) {
          remote.push_back(q);
          peer_list(q).push_back(dof);
        }
      }
    }
    for (int le = 0; le < 4; ++le) {
      const mesh::edge_link link = mesh.edge_link_of(e, le);
      const int q = label(link.neighbor);
      if (q == rank && link.neighbor < e) {
        const std::span<const std::int32_t> theirs =
            lower_dofs(link.neighbor, l);
        for (int k = 1; k + 1 < np; ++k)
          mine[at.along(le, k)] = theirs[at.along(
              link.neighbor_edge, link.reversed ? np - 1 - k : k)];
        continue;
      }
      for (int k = 1; k + 1 < np; ++k) mine[at.along(le, k)] = next++;
      if (q == rank) continue;
      std::vector<std::int32_t>& list = peer_list(q);
      for (int k = 1; k + 1 < np; ++k) list.push_back(mine[at.along(le, k)]);
    }
  }

  // Global dof and inverse multiplicity of each local dof, in numbering
  // order: a slot's new corners, then its new edges, whose np − 2 dofs are
  // new together. An edge-interior node has two copies.
  rp.global_dof.resize(static_cast<std::size_t>(next));
  rp.inv_multiplicity.resize(static_cast<std::size_t>(next));
  const auto global = [&](int e, std::size_t b) {
    const auto [i, j] = at.ij[b];
    return dofs.dof_of(e, i, j);
  };
  std::size_t seen = 0;
  for (std::size_t l = 0; l < rp.owned.size(); ++l) {
    const int e = rp.owned[l];
    const std::span<const std::int32_t> mine = slot_dofs(l);
    for (int c = 0; c < 4; ++c) {
      const std::size_t b = at.corner(c);
      if (static_cast<std::size_t>(mine[b]) != seen) continue;
      rp.global_dof[seen] = global(e, b);
      rp.inv_multiplicity[seen] = 1.0 / dofs.multiplicity(rp.global_dof[seen]);
      ++seen;
    }
    for (int le = 0; le < 4 && np > 2; ++le) {
      if (static_cast<std::size_t>(mine[at.along(le, 1)]) != seen) continue;
      for (int k = 1; k + 1 < np; ++k, ++seen) {
        rp.global_dof[seen] = global(e, at.along(le, k));
        rp.inv_multiplicity[seen] = 1.0 / 2;
      }
    }
  }

  // Each peer list in ascending global order: both sides of a link build
  // the same order, so packed vectors line up.
  for (peer_exchange& peer : rp.peers)
    std::ranges::sort(peer.dof_local, {}, [&](std::int32_t k) {
      return rp.global_dof[static_cast<std::size_t>(k)];
    });
  return rp;
}

exchange_plan exchange_plan::build(const assembly& dofs,
                                   const partition::partition& part) {
  SFP_REQUIRE(part.num_parts >= 1, "need at least one rank");
  exchange_plan plan;
  plan.ranks.reserve(static_cast<std::size_t>(part.num_parts));
  for (int r = 0; r < part.num_parts; ++r)
    plan.ranks.push_back(rank_exchange_plan::build(dofs, part, r));
  return plan;
}

std::int64_t exchange_plan::total_exchange_volume() const {
  std::int64_t total = 0;
  for (const auto& rp : ranks)
    for (const auto& peer : rp.peers)
      total += static_cast<std::int64_t>(peer.dof_local.size());
  return total;
}

int exchange_plan::max_peers() const {
  std::size_t most = 0;
  for (const auto& rp : ranks) most = std::max(most, rp.peers.size());
  return static_cast<int>(most);
}

halo_exchanger::halo_exchanger(const rank_exchange_plan& plan, int rank,
                               runtime::reliable_channel& channel,
                               std::size_t nfields)
    : plan_(&plan), channel_(&channel), acc_(nfields) {
  for (std::vector<double>& acc : acc_) acc.assign(plan.global_dof.size(), 0.0);
  // Per-neighbour wire-volume counters, only while a session is observing:
  // each (rank, peer) pair is one registry entry, so an unobserved run must
  // not create them.
  if (obs::trace::enabled()) {
    obs::registry& reg = obs::registry::global();
    const std::string prefix =
        "seam.halo.doubles.rank" + std::to_string(rank) + ".peer";
    peer_doubles_.reserve(plan.peers.size());
    for (const auto& peer : plan.peers)
      peer_doubles_.push_back(
          &reg.get_counter(prefix + std::to_string(peer.rank)));
  }
}

void halo_exchanger::accumulate(std::size_t f, std::size_t l,
                                std::span<const double> slot) {
  const rank_exchange_plan& plan = *plan_;
  const std::size_t nb = plan.slot_boundary.size();
  SFP_REQUIRE(f < acc_.size() && l < plan.owned.size() &&
                  slot.size() == plan.slot_size(),
              "not an owned slot of an exchanged field");
  const std::int32_t* dof = plan.boundary_dof.data() + l * nb;
  double* acc = acc_[f].data();
  for (std::size_t b = 0; b < nb; ++b)
    acc[static_cast<std::size_t>(dof[b])] +=
        slot[static_cast<std::size_t>(plan.slot_boundary[b])];
}

std::pair<std::int64_t, std::int64_t> halo_exchanger::exchange(
    std::size_t f, std::span<double> values) {
  const rank_exchange_plan& plan = *plan_;
  SFP_REQUIRE(f < acc_.size(), "no such exchanged field");
  SFP_REQUIRE(values.size() == plan.local_size(),
              "field is not in the rank-local layout");
  std::vector<double>& acc = acc_[f];
  std::int64_t messages = 0, doubles_sent = 0;
  {
    SFP_TRACE_SCOPE_CAT("halo.pack", "seam");
    for (std::size_t p = 0; p < plan.peers.size(); ++p) {
      const auto& peer = plan.peers[p];
      packed_.resize(peer.dof_local.size());
      for (std::size_t k = 0; k < peer.dof_local.size(); ++k)
        packed_[k] = acc[static_cast<std::size_t>(peer.dof_local[k])];
      channel_->send(peer.rank, packed_);
      ++messages;
      doubles_sent += static_cast<std::int64_t>(packed_.size());
      if (!peer_doubles_.empty())
        peer_doubles_[p]->add(static_cast<std::int64_t>(packed_.size()));
    }
  }
  {
    SFP_TRACE_SCOPE_CAT("halo.recv", "seam");
    // Every send is packed, so the remote partials add into acc itself,
    // in ascending peer order.
    for (const auto& peer : plan.peers) {
      const std::vector<double> incoming = channel_->recv(peer.rank);
      SFP_REQUIRE(incoming.size() == peer.dof_local.size(),
                  "halo exchange size mismatch");
      for (std::size_t k = 0; k < incoming.size(); ++k)
        acc[static_cast<std::size_t>(peer.dof_local[k])] += incoming[k];
    }
  }
  {
    SFP_TRACE_SCOPE_CAT("halo.unpack", "seam");
    for (std::size_t d = 0; d < acc.size(); ++d)
      acc[d] *= plan.inv_multiplicity[d];
    const std::span<const std::int32_t> offsets(plan.slot_boundary);
    const std::int32_t* dof = plan.boundary_dof.data();
    for (std::size_t base = 0; base < values.size();
         base += plan.slot_size(), dof += offsets.size())
      for (std::size_t b = 0; b < offsets.size(); ++b)
        values[base + static_cast<std::size_t>(offsets[b])] =
            acc[static_cast<std::size_t>(dof[b])];
    std::fill(acc.begin(), acc.end(), 0.0);
  }
  return {messages, doubles_sent};
}

}  // namespace sfp::seam
