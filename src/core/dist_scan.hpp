#pragma once
// Distributed-scan primitive: the tiny message-passing surface and the
// integer-exact collectives the parallel partitioner is written against.
//
// Layering: core sits below runtime, so the distributed algorithms cannot
// see runtime::transport. Instead core defines this minimal peer interface
// (dependency inversion) and runtime provides the adapter that carries it
// over a reliable channel on either wire of the one fabric — in process
// or loopback TCP — without the algorithm changing a line
// (runtime/partition_fabric.hpp).
//
// All collectives are deterministic and integer-exact: payloads are int64
// words, reductions are rank-ordered sums gathered at rank 0 and broadcast
// back, so every rank computes bit-identical results regardless of thread
// scheduling or backend. That determinism is what lets the parallel slicer
// promise bit-identical plans to the serial one.

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace sfp::core {

/// One rank's view of the peer group: ordered, reliable, blocking delivery
/// of int64 records between ranks. Implementations heal transport faults
/// underneath (see runtime/reliable.hpp); by the time a message surfaces
/// here it is exactly-once and in order per (src, dst) stream.
class peer_comm {
 public:
  virtual ~peer_comm();
  peer_comm(const peer_comm&) = delete;
  peer_comm& operator=(const peer_comm&) = delete;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Queue `words` for delivery to `dst`. Asynchronous; the matching recv
  /// on the peer returns exactly this payload.
  virtual void send(int dst, std::span<const std::int64_t> words) = 0;

  /// Block until the next message from `src` arrives and return it.
  /// Fault-tolerant implementations throw peer_lost instead of hanging when
  /// a peer stays silent past their detection budget.
  virtual std::vector<std::int64_t> recv(int src) = 0;

  /// Hint that `peer` is presumed dead: release any delivery state held for
  /// it (unacknowledged sends, parked frames) so its corpse stops tripping
  /// the transport's failure machinery. Default: nothing to release.
  virtual void forget_peer(int peer) { (void)peer; }

 protected:
  peer_comm() = default;
};

/// The one-rank group: rank 0 of 1, no peers. Lets every distributed
/// algorithm in this module run serially (unit tests, P=1 bench points)
/// with the identical code path. send/recv are contract errors.
class solo_comm final : public peer_comm {
 public:
  solo_comm() = default;
  int rank() const override { return 0; }
  int size() const override { return 1; }
  void send(int dst, std::span<const std::int64_t> words) override;
  std::vector<std::int64_t> recv(int src) override;
};

/// Sum of every rank's `value`, identical on all ranks. Rank-ordered
/// gather + broadcast: exact for int64 (associativity is free).
std::int64_t allreduce_sum(peer_comm& comm, std::int64_t value);

/// Elementwise-summed vector reduction, in place, identical on all ranks.
/// Every rank must pass the same number of words.
void allreduce_sum(peer_comm& comm, std::span<std::int64_t> inout);

/// Exclusive weighted scan across ranks: rank r receives the sum of every
/// lower rank's `value` (rank 0 receives 0) — the prefix offset a rank's
/// local weight total occupies in the global cumulative order.
std::int64_t exscan_sum(peer_comm& comm, std::int64_t value);

/// Concatenation of every rank's `words` in rank order, identical on all
/// ranks. Ranks may contribute different lengths, including zero — the
/// empty-rank case (K < P) contributes nothing and still participates.
std::vector<std::int64_t> allgather_concat(peer_comm& comm,
                                           std::span<const std::int64_t> words);

// ---------------------------------------------------------------------------
// Survivor regroup: group reconfiguration over peer_comm.
//
// The collectives above are strictly rank-0-rooted stars, which makes a
// deterministic agreement round cheap: the root can reach every leaf and
// every leaf talks only to the root, so a death is always detected by a rank
// that can coordinate (the root) or by ranks that all converge on the same
// successor (the lowest surviving rank). regroup_comm layers that protocol
// over any peer_comm: it frames every payload with a (group epoch, kind)
// prefix, drops stale-epoch frames — mirroring the socket transport's
// reconnect epoch handshake — and on a peer_lost runs the agreement round,
// bumps the epoch, and throws group_reconfigured so the caller can restart
// its collective algorithm from scratch over the shrunken group.
//
// Assumptions (documented in docs/parallel_partition.md): fail-stop ranks
// (a dead rank is silent forever, never Byzantine) and accurate suspicion —
// the base comm's detection timeout, times the patience budget here, must
// exceed the longest genuine silent gap of a live peer. A false suspicion
// degrades to eviction of a live rank (and possibly quorum abort), never to
// a hang or a wrong plan.

/// Thrown by a fault-tolerant peer_comm when `peer` is presumed dead.
/// `definite` distinguishes delivery-level proof (retransmit budget
/// exhausted on traffic addressed to the peer) from a bare recv timeout,
/// which regroup_comm retries against its patience budget first.
class peer_lost : public std::runtime_error {
 public:
  peer_lost(int peer, bool definite);
  int peer() const { return peer_; }
  bool definite() const { return definite_; }

 private:
  int peer_;
  bool definite_;
};

/// Thrown when the surviving group can no longer carry the computation:
/// fewer than regroup_options::min_members survivors, every peer suspected
/// dead, or this rank was evicted from the group by the coordinator.
class quorum_lost : public std::runtime_error {
 public:
  explicit quorum_lost(const std::string& why);
};

/// One rank's view of the surviving group. Members are world ranks (the
/// numbering of the original, full group), ascending; the epoch counts
/// reconfigurations and stamps every frame so stragglers from a previous
/// group incarnation are dropped on receipt.
struct group_view {
  std::uint64_t epoch = 0;
  std::vector<int> members;
};

/// Thrown out of regroup_comm operations after a successful agreement
/// round: the group has a new epoch and member list, and the caller must
/// restart its collective computation from scratch over it. Deterministic
/// restart preserves result parity when every input is a pure function of
/// the problem spec (see parallel_partition.hpp).
class group_reconfigured : public std::runtime_error {
 public:
  group_reconfigured(group_view view, int victim, int old_size);
  const group_view& view() const { return view_; }
  /// Lowest world rank dropped by this reconfiguration (for escalation).
  int victim() const { return victim_; }
  /// Member count before the reconfiguration (for escalation policy).
  int old_size() const { return old_size_; }

 private:
  group_view view_;
  int victim_;
  int old_size_;
};

/// Tuning for the regroup layer.
struct regroup_options {
  /// Minimum surviving group size; below it quorum_lost is thrown.
  int min_members = 2;
  /// How many consecutive base-comm recv timeouts a data wait tolerates
  /// before suspecting the peer dead. 0 = auto: group size + 3, so a peer
  /// that is merely slow (e.g. itself waiting out a corpse) is not
  /// mistaken for one. Definite losses bypass the budget entirely.
  int patience_rounds = 0;
};

/// Robustness accounting for one regroup_comm.
struct regroup_stats {
  std::int64_t stale_dropped = 0;    ///< frames from a previous group epoch
  std::int64_t aborted_data_dropped = 0;  ///< same-epoch frames of a phase a regroup interrupted
  std::int64_t reports_sent = 0;     ///< follower suspicion reports
  std::int64_t agreement_rounds = 0; ///< coordinator-candidate walks entered
  regroup_stats& operator+=(const regroup_stats& o);
};

/// Group-reconfiguration layer over a base peer_comm. Presents *dense*
/// survivor indexing: rank()/size() and the dst/src arguments of
/// send()/recv() are indices into view().members, so dense rank 0 is always
/// the lowest surviving world rank — rank-0 succession falls out of the
/// rank-0-rooted collectives above with no change to them.
class regroup_comm final : public peer_comm {
 public:
  /// `base` speaks world ranks over the full original group and must
  /// outlive this object. Detection relies on base.recv throwing peer_lost
  /// after a bounded wait; a base comm that waits forever disables regroup.
  explicit regroup_comm(peer_comm& base, regroup_options opts = {});

  int rank() const override;  ///< dense index of this rank among survivors
  int size() const override;  ///< survivor count
  void send(int dst, std::span<const std::int64_t> words) override;
  std::vector<std::int64_t> recv(int src) override;
  void forget_peer(int peer) override;

  const group_view& view() const { return view_; }
  const regroup_stats& stats() const { return stats_; }
  /// True while no rank has been dropped (epoch 0, full membership).
  bool group_intact() const;
  /// Reconfigurations this rank has adopted.
  int recoveries() const { return recoveries_; }

  /// Rooted pumping barrier over the current view. Unlike a fixed-topology
  /// fence over the full original group, this stays correct after deaths;
  /// deaths during the barrier regroup exactly like data-phase deaths.
  void barrier();

  /// External death report (e.g. a delivery failure surfaced outside
  /// recv): enters the agreement round immediately, throwing
  /// group_reconfigured or quorum_lost. Returns normally only when the
  /// peer is already outside the group (a stale corpse signal) — the
  /// base comm is told to forget it and the caller may carry on.
  void notify_peer_lost(int world_peer);

 private:
  /// Wire kinds inside the [epoch, kind] frame prefix.
  enum : std::int64_t {
    frame_data = 1,
    frame_report = 2,
    frame_newgroup = 3,
    frame_barrier = 4,
  };

  int world_of(int dense) const;
  int dense_of_self() const;
  int patience() const;
  bool is_member(int world_rank) const;

  /// Blocking framed receive from a *world* rank: filters stale epochs,
  /// stashes suspicion reports, adopts NEWGROUP frames (throwing
  /// group_reconfigured), and converts silence past the patience budget
  /// into an agreement round. Returns the frame including its prefix.
  /// With regroup_on_silence=false (used while an agreement round is
  /// already underway) exhausted patience throws peer_lost to the caller
  /// instead of recursing into begin_regroup.
  std::vector<std::int64_t> recv_framed(int world_src, std::int64_t want,
                                        int patience_rounds,
                                        bool regroup_on_silence = true);

  [[noreturn]] void begin_regroup(int first_suspect);
  [[noreturn]] void coordinate(std::vector<int> suspects);
  /// Install `next` (minted locally or received) and unwind the caller.
  /// The victim reported on group_reconfigured is computed here as the
  /// lowest member of the outgoing view absent from `next`.
  [[noreturn]] void adopt_and_throw(group_view next);
  void send_report(int world_dst, const std::vector<int>& suspects);
  void send_newgroup(int world_dst, const group_view& v);
  void suspect(std::vector<int>& suspects, int world_rank) const;

  peer_comm* base_;
  regroup_options opts_;
  group_view view_;
  int self_world_;
  int recoveries_ = 0;
  regroup_stats stats_;
  /// Latest suspicion report per world src: (epoch, members, suspects).
  struct stashed_report {
    std::uint64_t epoch = 0;
    std::vector<int> members;
    std::vector<int> suspects;
  };
  std::map<int, stashed_report> pending_reports_;
};

}  // namespace sfp::core
