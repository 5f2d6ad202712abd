#pragma once
// Virtual-rank runtime: a thread-backed, in-process transport backend. Each
// rank runs on its own thread with its own transport endpoint; send() copies
// the payload into the destination's mailbox and try_recv_any() dequeues
// from the rank's own. It is the stand-in for MPI point-to-point on the
// paper's cluster, and it carries exactly what the loopback-TCP backend
// (runtime/socket_transport.hpp) carries: unreliable datagrams, with the
// reliable channel (runtime/reliable.hpp) on top for ordering, dedup and
// delivery.
//
// Semantics: send() is asynchronous and copies its payload; messages between
// a fixed (source, destination, tag) triple are delivered in send order
// unless fault injection says otherwise.
//
// Fault tolerance: when any rank throws, a shared abort flag wakes every
// rank parked in try_recv_any with world_aborted instead of hanging the join
// loop. A seeded fault_plan injects deterministic kills and message
// drop/delay/duplication/corruption/truncation/reorder; an op is counted on
// every send, exactly as on the socket backend, so one chaos schedule
// replays bit for bit on both. Per-rank robustness counters account for
// everything that happened.
//
// Observability: every send is a trace span when an obs session is active
// (rank threads are named "rank N" in the dump), and run() publishes the
// per-run counters — plus per-tag payload bytes — into the global
// obs::registry. See docs/observability.md.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/transport.hpp"

namespace sfp::runtime {

/// A fixed-size group of virtual ranks. run() executes the given function
/// once per rank, each on its own thread with its own transport endpoint,
/// and returns when all complete. Exceptions thrown by any rank abort the
/// peers (they throw world_aborted out of try_recv_any) and the root-cause
/// exception is rethrown from run(). A world may be reused: run() resets all
/// fabric and failure state.
class world {
 public:
  struct options {
    /// Deterministic chaos schedule; default-constructed = no faults.
    fault_plan faults;
  };

  explicit world(int num_ranks);
  world(int num_ranks, options opts);

  int size() const { return num_ranks_; }

  void run(const std::function<void(transport&)>& rank_main);

  /// Rank whose exception triggered the abort of the last run, or -1 if the
  /// last run completed cleanly.
  int failed_rank() const { return failed_rank_.load(std::memory_order_acquire); }
  bool aborted() const { return failed_rank() >= 0; }

  /// Robustness counters from the last run.
  const rank_counters& counters(int rank) const;
  rank_counters total_counters() const;

 private:
  class endpoint;  ///< one rank's transport (world.cpp)

  struct mailbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::map<std::pair<int, int>, std::deque<std::vector<double>>> queues;
  };

  void send(int src, int dst, int tag, std::span<const double> data);
  void deliver(int dst, int src, int tag, std::vector<double> data);
  /// Bounded-wait dequeue of any (src=*, tag) message; false on timeout.
  bool take_any(int dst, int tag, std::chrono::microseconds wait,
                any_message* out);
  void trigger_abort(int rank);
  bool abort_requested() const {
    return abort_flag_.load(std::memory_order_acquire);
  }
  void reset_run_state();
  void publish_metrics() const;

  int num_ranks_;
  options opts_;
  std::vector<mailbox> mailboxes_;

  // Failure state (set once per run by the first failing rank).
  std::atomic<bool> abort_flag_{false};
  std::atomic<int> failed_rank_{-1};

  // Per-rank accounting and fault state; each entry is written only by its
  // own rank thread during run() and read after the join. The pipeline owns
  // the injector and the reorder stash (runtime/transport.hpp).
  std::vector<rank_counters> counters_;
  std::vector<std::map<int, std::int64_t>> tag_doubles_;
  std::vector<injection_pipeline> pipelines_;
};

}  // namespace sfp::runtime
