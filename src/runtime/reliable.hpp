#pragma once
// Reliable-delivery layer over a runtime::transport.
//
// A transport gives asynchronous, unreliable datagram sends: under fault
// injection a message can be dropped, duplicated, bit-flipped, truncated,
// or reordered. reliable_channel heals those transient faults in place
// over the virtual-rank fabric (runtime/world.hpp). Every rank program in
// the library — the SEAM runners and the distributed partitioner — talks
// through one.
//
// Each (sender, receiver) rank pair carries one ordered stream of data
// frames and fence tokens. Every frame travels in a checksummed envelope
// with the stream's sequence number; receivers drop corrupt frames,
// deduplicate, park out-of-order arrivals and ack every accepted or
// re-seen frame. Acks ride the same untagged (src, dst) datagrams, so one
// recv_or_quiescent pump drains everything. A frame's (src, dst, seq) is
// also the address an injected fault names (runtime/fault.hpp). The
// envelope carries no attempt number: every attempt runs on a fresh world.
//
// Loss is found by quiescence, not by a clock: in a quiescent round (every
// live rank blocked in its receive, nothing in flight) every frame still
// unacked was lost, or its ack was, and the pump resends it once. A
// fault-free run never goes quiescent, so it never retransmits. A frame
// still unacked after max_retransmits rounds raises
// peer_unreachable_error, which runtime::run_resilient (fabric.hpp)
// escalates; a round with nothing to resend anywhere is a world_deadlock.
//
// Deadlock-freedom: every blocking reliable op (recv, fence) runs the
// pump, so a waiting rank keeps acking its peers' frames. Ranks settle
// with fence() only: own sends acked, a pumping dissemination barrier,
// then the barrier's own tokens acked (those to a rank that has exited
// are discarded); run_resilient fences once when the body returns. The
// destructor never pumps, so no fault can be swallowed in teardown.
//
// See docs/runtime_faults.md for the wire format and the full ack/retransmit
// state machine.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "runtime/transport.hpp"

namespace sfp::runtime {

/// CRC32C (Castagnoli, reflected polynomial 0x82f63b78) over raw bytes.
/// Software slicing-by-8 implementation — the checksum the envelope carries.
std::uint32_t crc32c(const void* data, std::size_t bytes,
                     std::uint32_t crc = 0);

/// Thrown when a frame to `peer` is still unacked after max_retransmits
/// quiescent rounds: the transient-fault machinery gives up and the caller
/// should escalate to rank recovery.
class peer_unreachable_error : public std::runtime_error {
 public:
  /// `attempts` counts the original send plus every retransmit.
  peer_unreachable_error(int self, int peer, int attempts);
  int rank() const { return rank_; }
  int peer() const { return peer_; }

 private:
  int rank_;
  int peer_;
};

/// Envelope header prepended to every wire message, one uint64 bit-image per
/// double. Exposed (with encode/decode) so tests and the chaos shrinker can
/// reason about the wire format directly.
struct envelope {
  /// Data frames and fence tokens share one sequence stream per rank pair.
  enum class kind : std::uint8_t { data = 0, ack = 1, fence = 2 };
  kind type = kind::data;
  std::uint64_t seq = 0;  ///< per-(sender,receiver) sequence number
  std::uint64_t payload_doubles = 0;
  std::uint32_t crc = 0;  ///< CRC32C over header words 0..2 + payload bytes
};

namespace wire {

inline constexpr std::size_t header_doubles = 4;

/// Build the wire image: 4 header doubles followed by the payload.
std::vector<double> encode(const envelope& header,
                           std::span<const double> payload);

/// Parse a wire image's header without verifying its checksum or copying
/// its payload. Returns false when the image is not an envelope: short,
/// bad magic or kind, or a length word that disagrees with its size.
bool read_header(std::span<const double> message, envelope* header);

/// Parse and verify a wire image. Returns false on any malformation —
/// short message, bad magic, length mismatch (truncation), or checksum
/// mismatch (corruption; skipped when verify_checksum is false). On success
/// fills *header and *payload.
bool decode(std::span<const double> message, bool verify_checksum,
            envelope* header, std::vector<double>* payload);

}  // namespace wire

/// The retransmit budget and test hooks of a reliable_channel. There is
/// no timing knob: loss is found by quiescence.
struct reliable_options {
  /// Quiescent rounds a frame may be resent in before its peer is declared
  /// unreachable.
  int max_retransmits = 40;
  /// TEST HOOK — deliberately broken transport for the chaos soak: with
  /// verification off, corrupted payloads are delivered as-is and the soak
  /// harness must catch the resulting field divergence.
  bool verify_checksums = true;
  /// TEST HOOK — starting sequence number for every stream, on both the
  /// send and expect side. Setting it near UINT64_MAX exercises the
  /// sequence-number wraparound path without sending 2^64 messages.
  std::uint64_t first_seq = 0;
};

/// Per-channel robustness accounting (one channel per rank per attempt).
struct reliable_stats {
  std::int64_t data_sent = 0;       ///< data frames and fence tokens
  std::int64_t data_received = 0;   ///< accepted, in-order deliveries
  std::int64_t retransmits = 0;
  std::int64_t corruption_detected = 0;  ///< envelope verify failures
  std::int64_t dedup_dropped = 0;        ///< duplicate seq, re-acked
  std::int64_t out_of_order = 0;         ///< arrived past a gap, parked
  std::int64_t acks_sent = 0;
  std::int64_t acks_received = 0;
  /// Unacked entries dropped because their peer exited, or at teardown.
  std::int64_t shutdown_discarded = 0;

  reliable_stats& operator+=(const reliable_stats& o);
};

/// Exactly-once, in-order, checksummed delivery for one rank: one ordered
/// stream to and from each peer. Owned and driven by a single rank thread;
/// all cross-thread traffic goes through the transport underneath.
class reliable_channel {
 public:
  /// The caller keeps ownership of the transport, which must outlive the
  /// channel.
  explicit reliable_channel(transport& fabric, reliable_options opts = {});
  /// Never pumps: frames still unacked (no closing fence, or mid-unwind)
  /// are counted as shutdown_discarded.
  ~reliable_channel();
  reliable_channel(const reliable_channel&) = delete;
  reliable_channel& operator=(const reliable_channel&) = delete;

  /// Non-blocking: envelope the payload, record it as unacked, deliver.
  void send(int dst, std::span<const double> data);

  /// Blocking: pump until the next in-order message from `src` is
  /// available, or until peer_unreachable_error or world_aborted. The time
  /// spent waiting feeds the runtime.recv.queue_wait.us histogram. A fence
  /// token at the head of the stream is a contract error.
  std::vector<double> recv(int src);

  /// Settle: pump until every own send is acknowledged (resending lost
  /// frames in quiescent rounds), run a pumping dissemination barrier over
  /// the channel itself, then pump until the barrier's own tokens are
  /// acknowledged too, or discarded because their peer exited. Returns
  /// once every rank has entered, with nothing this rank sent left unacked,
  /// so every frame any rank sent before its fence is acked. The barrier's
  /// tokens ride the data streams, so everything sent to this rank before
  /// its peers fenced must be received first: data ahead of a token is a
  /// contract error.
  void fence();

  int rank() const { return fabric_->rank(); }
  int size() const { return fabric_->size(); }
  const reliable_stats& stats() const { return stats_; }

  /// Add the delta since the previous publish to the global obs registry
  /// (reliable.* counters). Idempotent under repeated calls; the destructor
  /// publishes whatever is still unreported.
  void publish_metrics();

 private:
  struct unacked_entry {
    std::vector<double> image;  ///< full wire image, replayed verbatim
    int attempts = 0;  ///< retransmissions so far
  };

  /// An accepted data frame or fence token.
  struct delivery {
    envelope::kind type = envelope::kind::data;
    std::vector<double> payload;
  };

  /// Both directions of the stream with one peer, created on first traffic
  /// with it: no state for silent peers, none that grows with run length.
  struct peer_state {
    std::uint64_t next_seq = 0;   ///< sender side: seq of the next send
    std::uint64_t expected = 0;   ///< receiver side: first seq not yet in
    std::uint64_t next_take = 0;  ///< receiver side: seq recv/fence take next
    std::map<std::uint64_t, unacked_entry> unacked;  ///< by seq
    /// Arrived, not yet taken, by seq: those below `expected` are in order
    /// and wait for recv/fence, the rest are parked past a gap.
    std::map<std::uint64_t, delivery> inbox;
  };

  /// The peer's state; every cursor starts at opts_.first_seq.
  peer_state& peer(int rank);
  /// Pump until no own frame is unacked.
  void settle();
  /// One pump iteration: block for one wire message and handle it, or, in
  /// a quiescent round, drop the unacked frames of exited peers and resend
  /// the rest once. `why` is what the caller waits for.
  void pump(wait_reason why);
  void handle_wire(any_message&& msg);
  void send_ack(int src, std::uint64_t seq);
  void send_frame(int dst, envelope::kind type,
                  std::span<const double> payload);
  /// Pump until the next in-order delivery from `src` arrives, require it
  /// to be of kind `want`, and return its payload.
  std::vector<double> take(int src, envelope::kind want);

  transport* fabric_;
  reliable_options opts_;
  reliable_stats stats_;
  reliable_stats published_;
  std::map<int, peer_state> peers_;  ///< by peer rank
};

}  // namespace sfp::runtime
