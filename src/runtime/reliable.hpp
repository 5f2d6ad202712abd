#pragma once
// Reliable-delivery layer over a runtime::transport.
//
// A transport gives asynchronous, unreliable datagram sends: under fault
// injection a message can be dropped, duplicated, bit-flipped, truncated,
// or reordered. reliable_channel heals those transient faults in place
// over the virtual-rank fabric (runtime/world.hpp). Every rank program in the library — the SEAM runners and the distributed
// partitioner — talks through one.
//
// Each (sender, receiver) rank pair carries one ordered stream of data
// frames and fence tokens. Every frame travels in a checksummed envelope
// with the stream's sequence number; receivers drop corrupt frames,
// deduplicate, park out-of-order arrivals and ack every accepted or
// re-seen frame, and senders retransmit unacked frames with capped
// exponential backoff. A frame that exhausts max_retransmits raises
// peer_unreachable_error, which runtime::run_resilient (fabric.hpp), the
// attempt loop of both resilient runners, escalates. Acks ride the same
// untagged (src, dst) datagrams, so one try_recv_any pump drains
// everything.
//
// Deadlock-freedom: every blocking reliable op (recv, flush, fence) runs the
// progress pump, so a rank waiting on its own traffic keeps servicing its
// peers' retransmissions. An exchange that must be settled before ranks
// move on ends with flush() (all own sends acked) followed by fence() — a
// pumping dissemination barrier: while any rank is still flushing, every
// other rank is provably inside a pumping call, so the missing re-ack always
// arrives. The destructor absorbs the final unacknowledgeable acks (the
// two-generals tail) by pumping for a bounded linger, then discarding.
//
// See docs/runtime_faults.md for the wire format and the full ack/retransmit
// state machine.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "runtime/transport.hpp"
#include "util/rng.hpp"

namespace sfp::runtime {

/// CRC32C (Castagnoli, reflected polynomial 0x82f63b78) over raw bytes.
/// Software slicing-by-8 implementation — the checksum the envelope carries.
std::uint32_t crc32c(const void* data, std::size_t bytes,
                     std::uint32_t crc = 0);

/// Thrown when a message to `peer` exhausted its retransmit budget (or a
/// reliable recv waited out recv_timeout): the transient-fault machinery
/// gives up and the caller should escalate to rank recovery.
class peer_unreachable_error : public std::runtime_error {
 public:
  peer_unreachable_error(int self, int peer, int attempts);
  int rank() const { return rank_; }
  int peer() const { return peer_; }
  /// Retransmit attempts behind the failure: > 0 means a full retransmit
  /// budget burned against silence, 0 a bare recv timeout.
  int attempts() const { return attempts_; }

 private:
  int rank_;
  int peer_;
  int attempts_;
};

/// Envelope header prepended to every wire message, one uint64 bit-image per
/// double. Exposed (with encode/decode) so tests and the chaos shrinker can
/// reason about the wire format directly.
struct envelope {
  /// Data frames and fence tokens share one sequence stream per rank pair.
  enum class kind : std::uint8_t { data = 0, ack = 1, fence = 2 };
  kind type = kind::data;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;  ///< per-(sender,receiver) sequence number
  std::uint64_t payload_doubles = 0;
  std::uint32_t crc = 0;  ///< CRC32C over header words 0..3 + payload bytes
};

namespace wire {

inline constexpr std::size_t header_doubles = 5;

/// Build the wire image: 5 header doubles followed by the payload.
std::vector<double> encode(const envelope& header,
                           std::span<const double> payload);

/// Parse and verify a wire image. Returns false on any malformation —
/// short message, bad magic, length mismatch (truncation), or checksum
/// mismatch (corruption; skipped when verify_checksum is false). On success
/// fills *header and *payload.
bool decode(std::span<const double> message, bool verify_checksum,
            envelope* header, std::vector<double>* payload);

}  // namespace wire

/// Tuning knobs and test hooks for a reliable_channel.
struct reliable_options {
  /// First retransmit fires this long after the original send; each further
  /// attempt doubles the wait up to max_backoff (capped exponential).
  std::chrono::microseconds retransmit_timeout{200};
  std::chrono::microseconds max_backoff{2000};
  /// Retransmit attempts before declaring the peer unreachable.
  int max_retransmits = 40;
  /// Per recv()/fence-round deadline; zero = wait forever.
  std::chrono::milliseconds recv_timeout{2000};
  /// Stale-epoch filter: messages from another epoch (a previous recovery
  /// attempt) are dropped on receipt.
  std::uint64_t epoch = 0;
  /// TEST HOOK — deliberately broken transport for the chaos soak: with
  /// verification off, corrupted payloads are delivered as-is and the soak
  /// harness must catch the resulting field divergence.
  bool verify_checksums = true;
  /// TEST HOOK — starting sequence number for every stream, on both the
  /// send and expect side. Setting it near UINT64_MAX exercises the
  /// sequence-number wraparound path without sending 2^64 messages.
  std::uint64_t first_seq = 0;
};

/// The retransmit deadline for a message on its `attempts`-th resend:
/// retransmit_timeout * 2^attempts, clamped to max_backoff, then stretched
/// by a factor drawn uniformly from [1, 1.1) on `r`, so peers that lost
/// the same message do not retransmit in lockstep even at max_backoff.
/// Exposed for the jitter unit tests.
std::chrono::microseconds compute_backoff(const reliable_options& opts,
                                          int attempts, rng& r);

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
  std::int64_t stale_dropped = 0;        ///< wrong-epoch messages
  std::int64_t shutdown_discarded = 0;   ///< unacked entries dropped at exit

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
  ~reliable_channel();
  reliable_channel(const reliable_channel&) = delete;
  reliable_channel& operator=(const reliable_channel&) = delete;

  /// Non-blocking: envelope the payload, record it as unacked, deliver.
  void send(int dst, std::span<const double> data);

  /// Blocking: pump until the next in-order message from `src` is
  /// available. Throws peer_unreachable_error after recv_timeout. The time
  /// spent waiting feeds the runtime.recv.queue_wait.us histogram. A fence
  /// token at the head of the stream is a contract error.
  std::vector<double> recv(int src);

  /// Pump until every send has been acknowledged (retransmitting as
  /// deadlines expire). Call before leaving an exchange phase.
  void flush();

  /// Pumping dissemination barrier over the channel itself: returns when
  /// every rank has entered (and therefore passed its flush()). Its tokens
  /// ride the data streams, so everything sent to this rank before its
  /// peers fenced must be received first: data ahead of a token is a
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
  using clock = std::chrono::steady_clock;

  struct unacked_entry {
    std::vector<double> image;  ///< full wire image, replayed verbatim
    clock::time_point deadline;
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
  bool all_acked() const;
  /// One pump iteration: wait briefly for one wire message and handle it,
  /// then retransmit every unacked frame whose deadline passed.
  void pump();
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
  rng jitter_rng_;  ///< retransmit-jitter draws, seeded from (epoch, rank)
  std::map<int, peer_state> peers_;  ///< by peer rank
};

}  // namespace sfp::runtime
