#pragma once
// Virtual-rank runtime: the one rank fabric. Each rank runs on its own
// thread with its own transport (runtime/transport.hpp), whose send()
// runs the payload through the rank's injection_pipeline and pushes the
// resulting images straight into the destination's inbox, and whose
// try_recv_any() dequeues from the rank's own inbox. It is the stand-in for
// MPI point-to-point on the paper's cluster: unreliable datagrams, with the
// reliable channel (runtime/reliable.hpp) on top for ordering, dedup and
// delivery. In the library, runtime::run_resilient (fabric.hpp) builds the
// world of every attempt; tests build worlds directly.
//
// Semantics: send() is asynchronous and copies its payload; messages on a
// fixed (source, destination) stream are delivered in send order unless
// fault injection says otherwise.
//
// Fault tolerance: when any rank throws, a shared abort flag wakes every
// rank parked in try_recv_any with world_aborted (after its inbox drains)
// instead of hanging the join loop. A seeded fault_plan injects
// deterministic kills and message drop/delay/duplication/corruption/
// truncation/reorder; an op is counted on every send, so one chaos schedule
// replays bit for bit. Per-rank robustness counters account for
// everything that happened.
//
// Observability: every send is a trace span when an obs session is active
// (rank threads are named "rank N" in the dump), and run() publishes the
// per-run counters into the global obs::registry. See
// docs/observability.md.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
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
  explicit world(int num_ranks, fault_plan faults = {});
  ~world();

  world(const world&) = delete;
  world& operator=(const world&) = delete;

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
  friend class transport;  ///< a rank's endpoint: send and take_any

  /// Per-source FIFO queues of one rank's delivered images.
  struct inbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::vector<std::deque<std::vector<double>>> from;
  };

  void send(int src, int dst, std::span<const double> data);
  void deliver(int dst, int src, std::vector<double> image);
  /// Bounded-wait dequeue from any source; false on timeout.
  bool take_any(int dst, std::chrono::microseconds wait, any_message* out);
  void trigger_abort(int rank);
  bool abort_requested() const {
    return abort_flag_.load(std::memory_order_acquire);
  }
  void reset_run_state();

  int num_ranks_;
  fault_plan faults_;
  std::vector<inbox> inboxes_;

  // Failure state (set once per run by the first failing rank).
  std::atomic<bool> abort_flag_{false};
  std::atomic<int> failed_rank_{-1};

  // Per-rank accounting and fault state; each entry is written only by its
  // own rank thread during run() and read after the join. The pipeline owns
  // the injector and the reorder stash (runtime/transport.hpp).
  std::vector<rank_counters> counters_;
  std::vector<injection_pipeline> pipelines_;
};

}  // namespace sfp::runtime
