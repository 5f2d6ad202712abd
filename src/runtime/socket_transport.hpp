#pragma once
// Loopback-TCP transport backend: the same virtual-rank model as
// runtime/world.hpp, but every rank talks to its peers over real sockets —
// framed byte streams with partial reads and writes, connection loss, and
// reconnection — so the reliable layer's guarantees are exercised against
// the failure modes a multi-node deployment actually has.
//
// Connection model: each rank owns one listening socket (127.0.0.1, kernel-
// assigned port, ports exchanged before the rank threads start) and dials
// peers lazily on first send. Each established link carries framed messages
// one way (dialer -> acceptor); a rank pair that talks both ways holds two
// independent links. Frames are CRC32C-protected; a frame that fails the
// check, or a stream that dies mid-frame, poisons the connection — the
// receiver closes it, the sender notices on its next write, and the frame
// in flight is simply lost (the reliable layer retransmits it).
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
// Fault injection: message-level chaos reuses the shared
// injection_pipeline verbatim (same plan, same rng streams, same counters
// as the in-process fabric), and a byte-stream injector underneath it
// mangles the framed writes themselves — truncated frames, split writes,
// resets, stalls — which is the layer the in-process fabric cannot model.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/transport.hpp"

namespace sfp::runtime {

/// One discrete byte-stream fault, pinned to the `nth` data frame (0-based,
/// in the sender's own write order, retransmits included) written on the
/// (src, dst) link. Handshake and heartbeat frames are never counted, and
/// frames with fewer than socket_fabric_options::stream_fault_min_payload
/// payload doubles are skipped, so chaos schedules can pin faults to
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

/// Declarative byte-stream chaos schedule for a socket fabric run.
struct stream_fault_plan {
  std::vector<stream_fault> faults;
  bool empty() const { return faults.empty(); }
};

/// Socket-layer robustness accounting, summed over ranks by total_stats().
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

struct socket_fabric_options {
  /// Message-level chaos, applied by the shared injection_pipeline above
  /// the framing layer — identical semantics to world::options::faults.
  fault_plan faults;
  /// Byte-stream chaos, applied underneath at frame-write time.
  stream_fault_plan stream_faults;
  /// Frames with fewer payload doubles than this neither count toward nor
  /// match a stream fault's `nth` index (see stream_fault).
  std::size_t stream_fault_min_payload = 0;
  /// Idle links carry a heartbeat this often.
  std::chrono::milliseconds heartbeat_interval{20};
  /// A link silent for this long is declared dead by its receiver.
  std::chrono::milliseconds heartbeat_timeout{2000};
  /// Bound on dial + HELLO/HELLO_ACK handshake.
  std::chrono::milliseconds connect_timeout{2000};
  /// How long a stall fault sits on its frame.
  std::chrono::microseconds stall_duration{2000};
};

struct socket_fabric_impl;  // internal machinery (socket_transport.cpp)

/// A fixed-size group of virtual ranks connected over loopback TCP. run()
/// executes the given function once per rank, each on its own thread with
/// its own transport endpoint, and returns when all complete. Failure
/// semantics mirror world::run: the first escaping exception aborts the
/// peers (blocked try_recv_any calls wake with world_aborted) and is
/// rethrown from run(). A fabric may be reused; run() resets all state and
/// binds fresh listening sockets.
class socket_fabric {
 public:
  explicit socket_fabric(int num_ranks);
  socket_fabric(int num_ranks, socket_fabric_options opts);
  ~socket_fabric();

  socket_fabric(const socket_fabric&) = delete;
  socket_fabric& operator=(const socket_fabric&) = delete;

  int size() const;

  void run(const std::function<void(transport&)>& rank_main);

  /// Rank whose exception triggered the abort of the last run, or -1.
  int failed_rank() const;
  bool aborted() const { return failed_rank() >= 0; }

  /// Robustness counters from the last run (same meaning as world's).
  const rank_counters& counters(int rank) const;
  rank_counters total_counters() const;

  /// Socket-layer accounting from the last run, summed over ranks.
  socket_stats total_stats() const;

 private:
  /// Add the last run's totals to the global obs registry (the same
  /// runtime.* counter names the in-process fabric publishes, plus the
  /// socket.* stats).
  void publish_metrics_totals() const;

  std::unique_ptr<socket_fabric_impl> impl_;
};

}  // namespace sfp::runtime
