#include "seam/exchange.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <string>

#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace sfp::seam {

exchange_plan exchange_plan::build(const assembly& dofs,
                                   const partition::partition& part) {
  const int np = dofs.np();
  const int nelem = dofs.num_elements();
  SFP_REQUIRE(part.part_of.size() == static_cast<std::size_t>(nelem),
              "partition must label every element");
  SFP_REQUIRE(part.num_parts >= 1, "need at least one rank");

  exchange_plan plan;
  plan.ranks.resize(static_cast<std::size_t>(part.num_parts));
  for (int e = 0; e < nelem; ++e) {
    const graph::vid p = part.part_of[static_cast<std::size_t>(e)];
    SFP_REQUIRE(p >= 0 && p < part.num_parts, "part label out of range");
    plan.ranks[static_cast<std::size_t>(p)].owned.push_back(e);
  }
  for (const auto& rp : plan.ranks)
    SFP_REQUIRE(!rp.owned.empty(), "every rank must own an element");

  // Which ranks touch each dof, in first-touch order: a CSR whose row for
  // dof d has room for its multiplicity (an upper bound on distinct ranks)
  // and `rank_count[d]` entries in use.
  const auto ndofs = static_cast<std::size_t>(dofs.num_dofs());
  std::vector<std::int64_t> rank_start(ndofs + 1, 0);
  for (std::size_t d = 0; d < ndofs; ++d)
    rank_start[d + 1] =
        rank_start[d] + dofs.multiplicity(static_cast<std::int64_t>(d));
  std::vector<int> dof_ranks(static_cast<std::size_t>(rank_start[ndofs]));
  std::vector<std::uint8_t> rank_count(ndofs, 0);
  const auto ranks_of = [&](std::int64_t dof) {
    const auto d = static_cast<std::size_t>(dof);
    return std::span<const int>(dof_ranks.data() + rank_start[d],
                                rank_count[d]);
  };
  for (int e = 0; e < nelem; ++e) {
    const int p = part.part_of[static_cast<std::size_t>(e)];
    for (int j = 0; j < np; ++j)
      for (int i = 0; i < np; ++i) {
        const auto d = static_cast<std::size_t>(dofs.dof_of(e, i, j));
        int* const row = dof_ranks.data() + rank_start[d];
        int* const used = row + rank_count[d];
        if (std::find(row, used, p) == used) {
          *used = p;
          ++rank_count[d];
        }
      }
  }

  // Touched dofs per rank, ascending: one sweep over the dofs in order.
  for (std::size_t d = 0; d < ndofs; ++d)
    for (const int q : ranks_of(static_cast<std::int64_t>(d)))
      plan.ranks[static_cast<std::size_t>(q)].touched_dofs.push_back(
          static_cast<std::int64_t>(d));

  // Global -> local dof index of the rank being planned; each rank writes
  // every entry it reads, so the array is reused without clearing.
  std::vector<std::int32_t> local_of(ndofs, -1);
  for (std::size_t self = 0; self < plan.ranks.size(); ++self) {
    rank_exchange_plan& rp = plan.ranks[self];
    for (std::size_t k = 0; k < rp.touched_dofs.size(); ++k)
      local_of[static_cast<std::size_t>(rp.touched_dofs[k])] =
          static_cast<std::int32_t>(k);

    rp.inv_multiplicity.resize(rp.touched_dofs.size());
    for (std::size_t k = 0; k < rp.touched_dofs.size(); ++k)
      rp.inv_multiplicity[k] = 1.0 / dofs.multiplicity(rp.touched_dofs[k]);

    for (const int e : rp.owned)
      for (int j = 0; j < np; ++j)
        for (int i = 0; i < np; ++i)
          rp.node_dof_local.push_back(
              local_of[static_cast<std::size_t>(dofs.dof_of(e, i, j))]);

    // Peer lists in ascending global-dof order (both sides build the same
    // order, so packed vectors line up).
    std::map<int, std::vector<std::int32_t>> by_peer;
    for (std::size_t k = 0; k < rp.touched_dofs.size(); ++k) {
      for (const int q : ranks_of(rp.touched_dofs[k])) {
        if (q != static_cast<int>(self))
          by_peer[q].push_back(static_cast<std::int32_t>(k));
      }
    }
    for (auto& [q, list] : by_peer) rp.peers.push_back({q, std::move(list)});
  }
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
                               runtime::reliable_channel& channel)
    : plan_(&plan), channel_(&channel) {
  acc_.resize(plan.touched_dofs.size());
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

std::pair<std::int64_t, std::int64_t> halo_exchanger::dss_average(
    std::span<double> field) {
  const rank_exchange_plan& plan = *plan_;
  SFP_REQUIRE(field.size() == plan.node_dof_local.size(),
              "field is not in the rank-local layout");
  std::int64_t messages = 0, doubles_sent = 0;
  {
    SFP_TRACE_SCOPE_CAT("halo.pack", "seam");
    std::fill(acc_.begin(), acc_.end(), 0.0);
    for (std::size_t k = 0; k < field.size(); ++k)
      acc_[static_cast<std::size_t>(plan.node_dof_local[k])] += field[k];

    for (std::size_t p = 0; p < plan.peers.size(); ++p) {
      const auto& peer = plan.peers[p];
      packed_.resize(peer.dof_local.size());
      for (std::size_t k = 0; k < peer.dof_local.size(); ++k)
        packed_[k] = acc_[static_cast<std::size_t>(peer.dof_local[k])];
      channel_->send(peer.rank, packed_);
      ++messages;
      doubles_sent += static_cast<std::int64_t>(packed_.size());
      if (!peer_doubles_.empty())
        peer_doubles_[p]->add(static_cast<std::int64_t>(packed_.size()));
    }
  }
  {
    SFP_TRACE_SCOPE_CAT("halo.recv", "seam");
    // Every send is packed, so the remote partials add into acc_ itself,
    // in ascending peer order.
    for (const auto& peer : plan.peers) {
      const std::vector<double> incoming = channel_->recv(peer.rank);
      SFP_REQUIRE(incoming.size() == peer.dof_local.size(),
                  "halo exchange size mismatch");
      for (std::size_t k = 0; k < incoming.size(); ++k)
        acc_[static_cast<std::size_t>(peer.dof_local[k])] += incoming[k];
    }
  }
  {
    SFP_TRACE_SCOPE_CAT("halo.unpack", "seam");
    for (std::size_t k = 0; k < field.size(); ++k) {
      const auto d = static_cast<std::size_t>(plan.node_dof_local[k]);
      field[k] = acc_[d] * plan.inv_multiplicity[d];
    }
  }
  return {messages, doubles_sent};
}

}  // namespace sfp::seam
