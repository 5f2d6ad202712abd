#pragma once
// Halo-exchange planning: the communication schedule induced by a partition
// of the spectral element mesh.
//
// Each rank plans its own halo (rank_exchange_plan::build, called inside
// the rank body): from the shared labels `part_of` it finds its owned
// elements, then walks each owned element's 4 corners and 4 edges through
// the closed-form cubed-sphere topology. It reads the labels of its
// elements' edge and corner neighbours and the assembly's dof numbers of
// its own boundary nodes, nothing else: no global (dof -> ranks) table is
// built, and the plan holds no array sized by the global dof count.
//
// A rank holds its fields in the rank-local layout the plan defines: owned
// slot l (0 <= l < owned.size()) holds element owned[l]'s np² nodes,
// contiguously, in the element's own (j, i) order — so local node
// k = l·np² + j·np + i is global node owned[l]·np² + j·np + i. A rank
// field is owned.size()·np² doubles, and nothing else of the global field.
//
// The plan covers element-boundary nodes only: the 4(np−1) nodes with i or
// j in {0, np−1}, at the same offsets in every slot (`slot_boundary`).
// An interior node has one copy, so DSS averaging is the identity on it
// and the exchanger never reads or writes it. That identity is exact for
// every value but −0.0: a full-node DSS summed it as 0.0 + (−0.0) = +0.0,
// the boundary-only one leaves it −0.0. Boundary nodes still sum every
// shared dof from 0.0 over the rank's own copies in ascending rank-local
// node order, then over the remote partials in ascending peer order, so
// they are bitwise those of a full-node DSS.

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "runtime/reliable.hpp"
#include "seam/assembly.hpp"

namespace sfp::seam {

struct rank_exchange_plan {
  int np = 0;
  std::vector<int> owned;  ///< element ids, ascending; slot l is owned[l]
  /// Slot offsets j·np + i of the 4(np−1) element-boundary nodes,
  /// ascending; the same in every slot.
  std::vector<std::int32_t> slot_boundary;
  /// Local dof of boundary node b of slot l at [l·slot_boundary.size() + b].
  /// Local dofs are numbered in first-touch order over the slots.
  std::vector<std::int32_t> boundary_dof;
  /// Global dof of each local dof.
  std::vector<std::int64_t> global_dof;
  /// 1 / global multiplicity (the number of incident elements), per local
  /// dof.
  std::vector<double> inv_multiplicity;
  struct peer_exchange {
    int rank;
    std::vector<std::int32_t> dof_local;  ///< shared dofs, ascending global order
  };
  std::vector<peer_exchange> peers;  ///< ascending by rank

  /// Nodes per slot (np²) and in the whole rank-local layout.
  std::size_t slot_size() const {
    return static_cast<std::size_t>(np) * static_cast<std::size_t>(np);
  }
  std::size_t local_size() const { return owned.size() * slot_size(); }

  /// The plan of `rank`, built from the shared labels and the closed-form
  /// topology of `dofs`'s mesh: O(K) label reads plus O(owned · np) work.
  /// Requires `rank` to own at least one element.
  static rank_exchange_plan build(const assembly& dofs,
                                  const partition::partition& part, int rank);
};

struct exchange_plan {
  std::vector<rank_exchange_plan> ranks;

  /// Every rank's plan, one rank_exchange_plan::build each. Every part must
  /// own at least one element.
  static exchange_plan build(const assembly& dofs,
                             const partition::partition& part);

  /// Diagnostics: total dof-partials crossing rank boundaries per DSS.
  std::int64_t total_exchange_volume() const;
  int max_peers() const;
};

/// Per-rank distributed DSS executor: accumulates the rank's own partial
/// sums of its boundary dofs, exchanges them with every peer, and writes
/// averaged values back into the boundary nodes of the rank-local `field`.
/// Remote partials are added in ascending peer order whatever order they
/// arrive in, so the result is bitwise reproducible under any delivery
/// timing.
///
/// Halo traffic travels through `channel` (checksummed, acked,
/// retransmitted — see runtime/reliable.hpp), healing injected
/// drop/corrupt/duplicate/reorder faults in place. A dss_average packs,
/// sends, receives and unpacks, and talks to its peers only: it does not
/// settle the channel, since each (sender, receiver) stream is ordered and
/// the next DSS's frames queue behind this one's; the fence that closes
/// the rank body settles it (runtime/fabric.hpp). `channel` must outlive
/// the exchanger; `rank` is this rank's id, used only for the per-peer obs
/// counter names.
class halo_exchanger {
 public:
  halo_exchanger(const rank_exchange_plan& plan, int rank,
                 runtime::reliable_channel& channel);

  /// Distributed equivalent of assembly::dss_average restricted to owned
  /// elements; `field` is in the rank-local layout (local_size() entries).
  /// Interior nodes are left untouched. Returns (messages sent, doubles
  /// sent) for accounting.
  std::pair<std::int64_t, std::int64_t> dss_average(std::span<double> field);

 private:
  const rank_exchange_plan* plan_;
  runtime::reliable_channel* channel_;
  std::vector<double> acc_;     // per local dof, then incl. remote partials
  std::vector<double> packed_;  // send scratch
  /// Per-peer halo-volume counters in the global obs registry
  /// ("seam.halo.doubles.rankR.peerQ"), parallel to plan.peers; empty when
  /// no obs session was active at construction.
  std::vector<obs::counter*> peer_doubles_;
};

}  // namespace sfp::seam
