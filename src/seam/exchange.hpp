#pragma once
// Halo-exchange planning: the communication schedule induced by a partition
// of the spectral element mesh.
//
// For a given (assembly, partition) pair this computes, per rank: the owned
// elements, the local numbering of every global dof the rank touches, and —
// for each peer rank — the ordered list of dofs whose partial sums must be
// exchanged each time the C0 continuity operator (DSS) runs. This is the
// object a production SEAM-like model would build once at startup; the
// partitioners in this library are competing precisely over how cheap these
// schedules are.
//
// A rank holds its fields in the rank-local layout the plan defines: owned
// slot l (0 <= l < owned.size()) holds element owned[l]'s np² nodes,
// contiguously, in the element's own (j, i) order — so local node
// k = l·np² + j·np + i is global node owned[l]·np² + j·np + i. A rank
// field is owned.size()·np² doubles, and nothing else of the global field.

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "runtime/reliable.hpp"
#include "seam/assembly.hpp"

namespace sfp::seam {

struct rank_exchange_plan {
  std::vector<int> owned;  ///< element ids, ascending; slot l is owned[l]
  /// For each node of the rank-local layout: index into `touched_dofs`
  /// (local dof numbering).
  std::vector<std::int32_t> node_dof_local;
  /// Global dofs touched by this rank's elements, ascending.
  std::vector<std::int64_t> touched_dofs;
  /// 1 / global multiplicity, per touched dof.
  std::vector<double> inv_multiplicity;
  struct peer_exchange {
    int rank;
    std::vector<std::int32_t> dof_local;  ///< shared dofs, ascending global order
  };
  std::vector<peer_exchange> peers;  ///< ascending by rank
};

struct exchange_plan {
  std::vector<rank_exchange_plan> ranks;

  /// Build plans for every rank. Every part must own at least one element.
  static exchange_plan build(const assembly& dofs,
                             const partition::partition& part);

  /// Diagnostics: total dof-partials crossing rank boundaries per DSS.
  std::int64_t total_exchange_volume() const;
  int max_peers() const;
};

/// Per-rank distributed DSS executor: accumulates the rank's own partial
/// sums, exchanges boundary partials with every peer, and writes averaged
/// values back into the rank-local `field`. Remote partials are added
/// in ascending peer order whatever order they arrive in, so the result is
/// bitwise reproducible under any delivery timing.
///
/// Halo traffic travels through `channel` (checksummed, acked,
/// retransmitted — see runtime/reliable.hpp), healing injected
/// drop/corrupt/duplicate/reorder faults in place.
/// Each dss_average ends with channel.flush() and channel.fence(): no rank
/// leaves the exchange until every rank's halo traffic is delivered and
/// acknowledged. `channel` must outlive the exchanger; `rank` is this
/// rank's id, used only for the per-peer obs counter names.
class halo_exchanger {
 public:
  halo_exchanger(const rank_exchange_plan& plan, int rank,
                 runtime::reliable_channel& channel);

  /// Distributed equivalent of assembly::dss_average restricted to owned
  /// elements; `field` is in the rank-local layout (one entry per
  /// node_dof_local entry). Returns (messages sent, doubles sent) for
  /// accounting.
  std::pair<std::int64_t, std::int64_t> dss_average(std::span<double> field);

 private:
  const rank_exchange_plan* plan_;
  runtime::reliable_channel* channel_;
  std::vector<double> acc_;     // per touched dof, then incl. remote partials
  std::vector<double> packed_;  // send scratch
  /// Per-peer halo-volume counters in the global obs registry
  /// ("seam.halo.doubles.rankR.peerQ"), parallel to plan.peers; empty when
  /// no obs session was active at construction.
  std::vector<obs::counter*> peer_doubles_;
};

}  // namespace sfp::seam
