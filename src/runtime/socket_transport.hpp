#pragma once
// Loopback-TCP wire for runtime::world: with transport_backend::socket the
// fabric (rank threads, inboxes, abort, counters, message-level fault
// injection) stays the world's, and every injected image travels to its
// destination inbox over real sockets — framed byte streams with partial
// reads and writes, connection loss, and reconnection — so the reliable
// layer's guarantees are exercised against the failure modes a multi-node
// deployment actually has.
//
// Connection model: each rank owns one listening socket (127.0.0.1, kernel-
// assigned port, bound before the rank threads start) and dials peers lazily
// on first send. Each established link carries framed messages one way
// (dialer -> acceptor); a rank pair that talks both ways holds two
// independent links, one per (src, dst) stream. Frames are CRC32C-protected;
// a frame that fails the check, or a stream that dies mid-frame, poisons the
// connection — the receiver closes it, the sender notices on its next
// write, and the frame in flight is simply lost (the reliable layer
// retransmits it).
//
// Reconnect + epoch handshake: every dial starts with a HELLO carrying the
// link's connection epoch (a per-(src, dst) counter on the sender) and
// blocks for the acceptor's HELLO_ACK. The acceptor remembers the highest
// epoch seen per source and drops data frames arriving on a superseded
// connection, so a straggling reader on a half-dead link can never inject
// stale bytes into the stream after its replacement is live. Exactly-once
// delivery across a reconnect then follows from the reliable layer's
// seq/ack dedup: nothing already acked is ever re-delivered upward.
//
// Health checking: a per-rank heartbeat thread keeps idle established links
// warm; a receiver that sees no traffic (data or heartbeat) for
// heartbeat_timeout declares the link dead and closes it.
//
// Fault injection: a byte-stream injector mangles the framed writes
// themselves — truncated frames, split writes, resets, stalls — which is
// the layer the in-process push cannot model.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace sfp::runtime {

/// One discrete byte-stream fault, pinned to the `nth` data frame (0-based,
/// in the sender's own write order, retransmits included) written on the
/// (src, dst) link. Handshake and heartbeat frames are never counted, and
/// neither are header-only frames (acks, fence tokens: at most
/// wire::header_doubles payload doubles), so chaos schedules pin faults to
/// reliable *data* frames exactly like message_fault::min_payload does.
struct stream_fault {
  enum class kind : int {
    truncate = 0,  ///< write a partial frame, then kill the connection
    split,         ///< write the frame in small chunks with pauses between
    reset,         ///< kill the connection before the frame goes out
    stall,         ///< sit on the frame for `stall` before writing it
  };
  kind what = kind::truncate;
  int src = 0;
  int dst = 0;
  std::int64_t nth = 0;
};

const char* to_string(stream_fault::kind k);

/// Declarative byte-stream chaos schedule for a socket-wire run.
struct stream_fault_plan {
  std::vector<stream_fault> faults;
  bool empty() const { return faults.empty(); }
};

/// Socket-layer robustness accounting, summed over ranks
/// (world::socket_totals()).
struct socket_stats {
  std::int64_t connects = 0;       ///< successful dial + handshake rounds
  std::int64_t reconnects = 0;     ///< connects after the first, per link
  std::int64_t frames_sent = 0;    ///< data frames written whole
  std::int64_t frames_received = 0;  ///< data frames delivered to the inbox
  std::int64_t heartbeats_sent = 0;
  std::int64_t frames_rejected = 0;  ///< CRC/framing failures (link poisoned)
  std::int64_t stale_epoch_dropped = 0;  ///< frames from superseded links
  std::int64_t injected_stream_faults = 0;
  std::int64_t send_failures = 0;  ///< frames lost to a dead connection

  socket_stats& operator+=(const socket_stats& o);
};

/// Add one run's socket totals to the global obs registry as socket.*
/// counters.
void publish_counters(const socket_stats& totals);

struct fabric_options;
struct socket_wire_impl;  // links, listeners and their threads (.cpp)

/// The loopback-TCP links under one socket-backed world::run. Construction
/// binds every rank's listener and starts the acceptor and heartbeat
/// threads; destruction closes every link and joins every thread. Reader
/// threads hand each verified data frame to `deliver`.
class socket_wire {
 public:
  using deliver_fn =
      std::function<void(int dst, int src, std::vector<double> image)>;

  /// `totals` receives the socket accounting; it is final once the wire
  /// is destroyed.
  socket_wire(int num_ranks, const fabric_options& opts, deliver_fn deliver,
              socket_stats* totals);
  ~socket_wire();

  socket_wire(const socket_wire&) = delete;
  socket_wire& operator=(const socket_wire&) = delete;

  /// Frame `image` onto the src -> dst link, applying any due stream fault.
  /// Called only from rank `src`'s thread. A dead link loses the frame and
  /// is redialed on the next write.
  void write(int src, int dst, std::span<const double> image);

 private:
  std::unique_ptr<socket_wire_impl> impl_;
};

}  // namespace sfp::runtime
