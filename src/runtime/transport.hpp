#pragma once
// The transport interface: the narrow fabric surface the reliable delivery
// layer (runtime/reliable.hpp) consumes, so the seq/ack/retransmit
// machinery, escalation ladder and chaos harness speak to a rank endpoint,
// not to the fabric behind it.
//
// A transport is an unreliable datagram fabric: send() is asynchronous,
// fire-and-forget, and may drop / duplicate / mangle payloads (by fault
// injection); try_recv_any() is the bounded polling primitive the reliable
// layer pumps. Everything stronger — ordering, dedup, delivery guarantees —
// is the reliable layer's job.
//
// The one fabric behind it is runtime::world (world.hpp): rank threads,
// inboxes, abort and counters, with every sent image pushed straight into
// the destination's inbox. fabric.hpp runs a rank program on it.
//
// Datagrams are untagged: a fabric carries (src, dst) streams only, and the
// reliable envelope orders data and fence tokens on one stream per pair.
//
// The shared fabric vocabulary (rank_counters, any_message, world_aborted)
// lives here because the fabric and the reliable layer both speak it.

#include <chrono>
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

/// One message pulled off the wire by try_recv_any: its provenance plus the
/// payload exactly as delivered (possibly corrupted/truncated in transit).
struct any_message {
  int src = -1;
  std::vector<double> payload;
};

/// The per-rank datagram surface. One instance per rank, valid only for the
/// duration of the owning fabric's run; all methods are called from that
/// rank's own thread.
class transport {
 public:
  virtual ~transport();
  transport(const transport&) = delete;
  transport& operator=(const transport&) = delete;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Asynchronously hand `data` to the fabric for delivery to `dst`.
  /// Unreliable: the message may be dropped, duplicated, corrupted,
  /// truncated, or reordered before it reaches the peer.
  virtual void send(int dst, std::span<const double> data) = 0;

  /// Wait up to `wait` for a message from *any* source and dequeue it
  /// (lowest source rank first). Returns false when nothing arrived in
  /// time. Not a communication op for fault accounting — deadline policy
  /// belongs to the caller pumping it. A fabric abort wakes it with
  /// world_aborted once the inbox is drained.
  virtual bool try_recv_any(std::chrono::microseconds wait,
                            any_message* out) = 0;

 protected:
  transport() = default;
};

/// One rank's message-level fault machinery, run by the fabric on every
/// send: the plan's rng streams and counter accounting are what keep one
/// chaos schedule bit-for-bit reproducible.
///
/// Owned by one rank thread; not thread-safe.
class injection_pipeline {
 public:
  injection_pipeline(const fault_plan& plan, int rank,
                     rank_counters* counters);

  /// Count one communication op (the fabric calls this once per send);
  /// throws rank_killed (and accounts it) when a planned kill is due.
  void count_op();

  /// What one logical send turns into after injection.
  struct outcome {
    /// Wire images to deliver now, in order. Empty when the message was
    /// dropped or stashed for reorder; two identical images for a
    /// duplicate; a trailing third image is a previously-stashed message
    /// flushed by the injected swap.
    std::vector<std::vector<double>> wire;
    /// Copies charged to messages_sent/doubles_sent for this call (a
    /// flushed stash image was charged when it was stashed).
    int accounted_copies = 0;
    /// Payload length of each accounted copy, after truncation.
    std::size_t copy_doubles = 0;
  };

  /// Run one outgoing message through the plan: draws all randomness,
  /// applies drop/delay/duplicate/corrupt/truncate/reorder, sleeps injected
  /// delays in place, and updates the injected_* plus sent-side counters.
  /// The caller only delivers the returned wire images, in order.
  outcome on_send(int dst, std::span<const double> data);

  std::int64_t ops() const { return injector_.ops(); }

 private:
  fault_injector injector_;
  rank_counters* counters_;
  /// Reorder stash: a reordered message waits here and is delivered right
  /// after the next send to the same destination that the plan matches.
  std::map<int, std::vector<double>> stash_;
};

}  // namespace sfp::runtime
