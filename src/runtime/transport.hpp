#pragma once
// The transport: one rank's endpoint on the fabric, the narrow surface the
// reliable delivery layer (runtime/reliable.hpp) consumes, so the
// seq/ack/retransmit machinery, escalation ladder and chaos harness speak
// to a rank endpoint, not to the fabric behind it.
//
// A transport is an unreliable datagram fabric: send() is asynchronous,
// fire-and-forget, and may drop / duplicate / mangle payloads (by fault
// injection). recv_or_quiescent() is its one receive and has no timeout:
// it returns a message, or reports that the fabric went quiescent, so any
// frame still unacknowledged was lost. Everything stronger — ordering,
// dedup, delivery guarantees — is the reliable layer's job.
//
// The one fabric behind it is runtime::world (world.hpp): rank threads,
// inboxes, abort and counters, with every sent image pushed straight into
// the destination's inbox. world::run hands each rank thread its transport;
// runtime::run_resilient (fabric.hpp) is the one place that builds a world.
//
// Datagrams are untagged: a fabric carries (src, dst) streams only, and the
// reliable envelope orders data and fence tokens on one stream per pair.
//
// The shared fabric vocabulary (rank_counters, any_message, world_aborted,
// world_deadlock) lives here because the fabric and the reliable layer
// both speak it.

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "runtime/fault.hpp"

namespace sfp::runtime {

/// Thrown in ranks blocked in communication when a peer rank has failed:
/// the fabric is aborting and no further progress is possible.
class world_aborted : public std::runtime_error {
 public:
  world_aborted(int self, int failed_rank);
  int failed_rank() const { return failed_rank_; }

 private:
  int failed_rank_;
};

/// Thrown out of world::run when two quiescent rounds pass with no send in
/// between: no rank had a lost frame to resend. Names what each waiting
/// rank was waiting for.
class world_deadlock : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-rank robustness accounting, exposed after a fabric run returns.
struct rank_counters {
  std::int64_t messages_sent = 0;      ///< deliveries (duplicates included)
  std::int64_t messages_received = 0;
  std::int64_t doubles_sent = 0;
  std::int64_t doubles_received = 0;
  std::int64_t aborts_observed = 0;    ///< world_aborted thrown here
  std::int64_t injected_kills = 0;
  std::int64_t injected_drops = 0;
  std::int64_t injected_delays = 0;
  std::int64_t injected_duplicates = 0;
  std::int64_t injected_corruptions = 0;  ///< bit-flipped payloads delivered
  std::int64_t injected_truncations = 0;  ///< shortened payloads delivered
  std::int64_t injected_reorders = 0;     ///< sends swapped with their successor

  rank_counters& operator+=(const rank_counters& o);
};

/// Add one run's totals to the global obs registry as the runtime.*
/// counters.
void publish_counters(const rank_counters& totals);

/// One message pulled off the wire by recv_or_quiescent: its provenance
/// plus the payload exactly as delivered (possibly corrupted/truncated in
/// transit).
struct any_message {
  int src = -1;
  std::vector<double> payload;
};

/// What recv_or_quiescent produced.
enum class recv_status { message, quiescent };

/// What a rank blocked in recv_or_quiescent waits for, as world_deadlock
/// names it.
struct wait_reason {
  enum class kind : std::uint8_t { recv, fence };
  kind what;
  int src = -1;  ///< the stream a recv waits on; -1 for any
};

class world;

/// One rank's datagram surface on a world. world::run builds one per rank
/// thread, valid only for the duration of that run; all methods are called
/// from that rank's own thread.
class transport {
 public:
  transport(const transport&) = delete;
  transport& operator=(const transport&) = delete;

  int rank() const { return rank_; }
  int size() const;

  /// Asynchronously hand `data` to the fabric for delivery to `dst`.
  /// Unreliable: the message may be dropped, duplicated, corrupted,
  /// truncated, or reordered before it reaches the peer.
  void send(int dst, std::span<const double> data);

  /// Block until a message from *any* source arrives and dequeue it into
  /// `out` (lowest source rank first), or return `quiescent` once per
  /// quiescent round: every live rank blocked here, every live inbox empty.
  /// Not a communication op for fault accounting. A fabric abort (also a
  /// deadlock) wakes it with world_aborted once the inbox is drained.
  [[nodiscard]] recv_status recv_or_quiescent(any_message* out,
                                              wait_reason why);

  /// True once `peer`'s rank body has returned: it is no longer live, and
  /// what is sent to it is discarded.
  bool peer_exited(int peer) const;

 private:
  friend class world;
  transport(world& w, int rank) : world_(&w), rank_(rank) {}

  world* world_;
  int rank_;
};

/// One rank's message-level fault machinery, run by the fabric on every
/// send: its injector is the one place that reads an outgoing message's
/// envelope header, to find the frame a fault or kill addresses, and its
/// rng streams and counter accounting keep one chaos schedule bit-for-bit
/// reproducible. An empty plan reads no header.
///
/// Owned by one rank thread; not thread-safe.
class injection_pipeline {
 public:
  injection_pipeline(const fault_plan& plan, int rank,
                     rank_counters* counters);

  /// Run one outgoing message through the plan: counts a frame toward the
  /// kills (throws rank_killed, and accounts it, when one is due), draws
  /// all randomness, applies drop/delay/duplicate/corrupt/truncate/reorder,
  /// sleeps injected delays in place, and updates the injected_* plus
  /// sent-side counters. Returns the wire images to deliver now, in order:
  /// none when the message was dropped or stashed for reorder, two
  /// identical ones for a duplicate, and a previously stashed message last
  /// when this one releases it.
  std::vector<std::vector<double>> on_send(int dst,
                                           std::span<const double> data);

 private:
  fault_injector injector_;
  bool inert_;  ///< the plan is empty: inject nothing, read no header
  rank_counters* counters_;
  /// Reorder stash: a reordered message waits here and is delivered right
  /// after the next frame to the same destination.
  std::map<int, std::vector<double>> stash_;
};

}  // namespace sfp::runtime
